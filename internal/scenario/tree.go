package scenario

import (
	"fmt"

	"cres/internal/fleet"
)

// TreeSpec declaratively describes a verifier-hierarchy workload: a
// fleet spec for the devices plus the hierarchy's shape — Depth merge
// tiers of Fanout children over DevicesPerLeaf-sized verifier shards.
// The spec pins complete trees (Fanout^Depth leaves), the shape the
// E15 sweep reports on; fleet.Tree itself also accepts ragged shapes.
// Like the other specs, Compile validates and fills defaults without
// running anything.
type TreeSpec struct {
	// Fleet describes the devices. Its Size and ShardSize are derived
	// from the hierarchy shape and must be left zero.
	Fleet FleetSpec
	// Depth is the number of merge tiers above the leaves (>= 1).
	Depth int
	// Fanout is the children per interior node (>= 2).
	Fanout int
	// DevicesPerLeaf is the device count of each leaf verifier shard
	// (default fleet.DefaultShardSize).
	DevicesPerLeaf int
}

// CompiledTree is a validated TreeSpec: the compiled fleet sized to
// the hierarchy plus the tree configuration, ready for Engine + Tree
// once the caller sets a seed.
type CompiledTree struct {
	// Spec is the normalized spec.
	Spec TreeSpec
	// Fleet is the compiled fleet, its Size set to Leaves ×
	// DevicesPerLeaf and its ShardSize to DevicesPerLeaf so the
	// engine's verifier shards are exactly the hierarchy's leaves.
	Fleet *CompiledFleet
	// Leaves is Fanout^Depth.
	Leaves int
	// Config is the hierarchy configuration.
	Config fleet.TreeConfig
}

// Compile validates the tree spec and lowers it to a compiled fleet
// plus hierarchy configuration.
func (s TreeSpec) Compile() (*CompiledTree, error) {
	if s.Depth < 1 {
		return nil, fmt.Errorf("scenario: tree %q: depth %d, want >= 1", s.Fleet.Name, s.Depth)
	}
	if s.Fanout < 2 {
		return nil, fmt.Errorf("scenario: tree %q: fanout %d, want >= 2", s.Fleet.Name, s.Fanout)
	}
	if s.DevicesPerLeaf < 0 {
		return nil, fmt.Errorf("scenario: tree %q: devices per leaf %d, want >= 0", s.Fleet.Name, s.DevicesPerLeaf)
	}
	if s.DevicesPerLeaf == 0 {
		s.DevicesPerLeaf = fleet.DefaultShardSize
	}
	if s.Fleet.Size != 0 || s.Fleet.ShardSize != 0 {
		return nil, fmt.Errorf("scenario: tree %q: fleet Size/ShardSize are derived from the hierarchy shape; leave them zero", s.Fleet.Name)
	}
	leaves := 1
	for i := 0; i < s.Depth; i++ {
		if leaves > 1<<20/s.Fanout {
			return nil, fmt.Errorf("scenario: tree %q: %d^%d leaves overflows the supported hierarchy size", s.Fleet.Name, s.Fanout, s.Depth)
		}
		leaves *= s.Fanout
	}
	size := leaves * s.DevicesPerLeaf
	if size/s.DevicesPerLeaf != leaves || size <= 0 {
		return nil, fmt.Errorf("scenario: tree %q: %d leaves × %d devices overflows", s.Fleet.Name, leaves, s.DevicesPerLeaf)
	}
	fs := s.Fleet
	fs.Size = size
	fs.ShardSize = s.DevicesPerLeaf
	// A leaf smaller than the default device batch would fail the
	// engine's batch <= shard check; clamp the default down to the leaf.
	if fs.BatchSize == 0 && s.DevicesPerLeaf < fleet.DefaultBatchSize {
		fs.BatchSize = s.DevicesPerLeaf
	}
	cf, err := fs.Compile()
	if err != nil {
		return nil, err
	}
	ct := &CompiledTree{
		Spec:   s,
		Fleet:  cf,
		Leaves: leaves,
		Config: fleet.TreeConfig{Fanout: s.Fanout},
	}
	ct.Spec.DevicesPerLeaf = s.DevicesPerLeaf
	return ct, nil
}

// Tree builds the runnable hierarchy for one run at the given root
// seed and checks the compiled shape came out as specified.
func (c *CompiledTree) Tree(seed int64) (*fleet.Tree, error) {
	eng, err := c.Fleet.Engine(seed)
	if err != nil {
		return nil, err
	}
	tr, err := fleet.NewTree(eng, c.Config)
	if err != nil {
		return nil, err
	}
	if tr.Leaves() != c.Leaves || tr.Depth() != c.Spec.Depth {
		return nil, fmt.Errorf("scenario: tree %q compiled to %d leaves depth %d, hierarchy built %d/%d",
			c.Spec.Fleet.Name, c.Leaves, c.Spec.Depth, tr.Leaves(), tr.Depth())
	}
	return tr, nil
}
