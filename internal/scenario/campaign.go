package scenario

import (
	"fmt"
	"strings"
	"time"

	"cres/internal/attack"
	"cres/internal/harness"
)

// Attack kinds in a compiled campaign.
const (
	KindScenario = "scenario"
	KindPlan     = "plan"
)

// The attack cell, cres.RunAttack, warms its device for CampaignWarm
// before the attack and observes it for CampaignWindow after launch,
// extended by a staged plan's horizon.
const (
	CampaignWarm   = 15 * time.Millisecond
	CampaignWindow = 30 * time.Millisecond
)

// campaignDevices are the device shapes every campaign runs: the
// reference pair of one CRES and one baseline device.
var campaignDevices = [...]DeviceSpec{
	{Name: "dut", Arch: ArchCRES},
	{Name: "dut", Arch: ArchBaseline},
}

// CampaignSpec crosses the reference device pair × attacks × seeds
// into a matrix of independent runs. Attacks are single scenarios (by
// registry name) plus staged plans; every combination runs once per
// derived seed.
type CampaignSpec struct {
	// RootSeed seeds the campaign; every cell derives its own engine
	// seed from it via harness.ShardSeed. Zero is a valid root seed —
	// it is used as given, never substituted.
	RootSeed int64
	// Seeds is the number of seed replicas per (attack, device) cell.
	// It must be at least 1: a zero-seed campaign runs nothing and is
	// rejected at compile time.
	Seeds int
	// Scenarios are single-scenario attacks by registry name. Nil
	// selects the full registered suite; empty selects none.
	Scenarios []string
	// Plans are the staged attacks. Nil selects the built-in plans;
	// empty selects none.
	Plans []AttackPlan
}

// CompiledAttack is one attack column of the campaign matrix: a single
// scenario or a compiled staged plan, uniformly launchable.
type CompiledAttack struct {
	// Name is the scenario or plan name.
	Name string
	// Kind is KindScenario or KindPlan.
	Kind string
	// Scenario is the launchable attack.
	Scenario attack.Scenario
}

// Cell is one campaign run: one attack against one device shape at one
// derived seed.
type Cell struct {
	// Index is the cell's position in the enumeration — its shard index.
	Index int
	// Attack is the attack under test.
	Attack CompiledAttack
	// Device is the compiled device shape. Its Spec.Seed is not the run
	// seed; use Seed.
	Device *CompiledDevice
	// SeedIndex is the replica number in [0, Seeds).
	SeedIndex int
	// Seed is harness.ShardSeed(RootSeed, Index) — the engine seed for
	// this cell's private simulation.
	Seed int64
}

// CompiledCampaign is a validated campaign: the full cell enumeration
// plus the compiled axes, ready to fan across a harness pool.
type CompiledCampaign struct {
	// Spec is the normalized spec.
	Spec CampaignSpec
	// Devices are the compiled reference device pair, CRES first.
	Devices []*CompiledDevice
	// Attacks are the compiled attack columns: scenarios in registry
	// order, then plans in spec order.
	Attacks []CompiledAttack
}

// Compile validates the campaign and compiles its axes.
func (c CampaignSpec) Compile() (*CompiledCampaign, error) {
	if c.Seeds <= 0 {
		return nil, fmt.Errorf("scenario: campaign with %d seeds runs nothing (want >= 1)", c.Seeds)
	}
	if c.Scenarios == nil {
		c.Scenarios = attack.Names()
	}
	if c.Plans == nil {
		c.Plans = BuiltinPlans()
	}
	if len(c.Scenarios)+len(c.Plans) == 0 {
		return nil, fmt.Errorf("scenario: campaign with no attacks")
	}

	cc := &CompiledCampaign{Spec: c}
	for i, ds := range campaignDevices {
		cd, err := ds.Compile()
		if err != nil {
			return nil, fmt.Errorf("scenario: campaign device %d: %w", i, err)
		}
		cc.Devices = append(cc.Devices, cd)
	}
	seen := make(map[string]bool)
	for _, name := range c.Scenarios {
		sc, ok := attack.Get(name)
		if !ok {
			return nil, fmt.Errorf("scenario: campaign: unknown scenario %q (known: %s)",
				name, strings.Join(attack.SortedNames(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("scenario: campaign: scenario %q listed twice", name)
		}
		seen[name] = true
		cc.Attacks = append(cc.Attacks, CompiledAttack{Name: name, Kind: KindScenario, Scenario: sc})
	}
	for _, p := range c.Plans {
		cp, err := p.Compile()
		if err != nil {
			return nil, err
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("scenario: campaign: attack %q listed twice", p.Name)
		}
		seen[p.Name] = true
		cc.Attacks = append(cc.Attacks, CompiledAttack{Name: p.Name, Kind: KindPlan, Scenario: cp.Scenario()})
	}
	return cc, nil
}

// NumCells is the campaign's total cell count:
// attacks × devices × seeds.
func (c *CompiledCampaign) NumCells() int {
	return len(c.Attacks) * len(c.Devices) * c.Spec.Seeds
}

// Cells enumerates every cell in matrix order — attack-major, then
// device, then seed replica — with seeds derived from the root seed by
// cell index. The enumeration is a pure function of the spec, so it is
// identical however the cells are later scheduled.
func (c *CompiledCampaign) Cells() []Cell {
	perAttack := len(c.Devices) * c.Spec.Seeds
	cells := make([]Cell, 0, c.NumCells())
	for ai, att := range c.Attacks {
		for di, dev := range c.Devices {
			for s := 0; s < c.Spec.Seeds; s++ {
				idx := ai*perAttack + di*c.Spec.Seeds + s
				cells = append(cells, Cell{
					Index:     idx,
					Attack:    att,
					Device:    dev,
					SeedIndex: s,
					Seed:      harness.ShardSeed(c.Spec.RootSeed, idx),
				})
			}
		}
	}
	return cells
}

// RunCells fans the campaign's cells across the pool and returns the
// per-cell results in matrix order — the runnable form of a compiled
// campaign. Each cell is one harness shard: the job must build its own
// engine from cell.Seed and share nothing with other cells.
func RunCells[T any](pool *harness.Pool, cc *CompiledCampaign, job func(Cell) (T, error)) ([]T, error) {
	cells := cc.Cells()
	return harness.Map(pool, len(cells), cc.Spec.RootSeed, func(sh harness.Shard) (T, error) {
		return job(cells[sh.Index])
	})
}
