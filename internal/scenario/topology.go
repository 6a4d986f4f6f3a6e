package scenario

import (
	"fmt"
	"sort"

	"cres/internal/harness"
)

// Topology kinds a TopologySpec may select.
const (
	// TopologyRing wires each node to its Fanout nearest neighbours on
	// each side of a ring (Fanout 1 is the classic ring).
	TopologyRing = "ring"
	// TopologyStar wires every node to node 0, the hub.
	TopologyStar = "star"
	// TopologyMesh wires every node to every other node.
	TopologyMesh = "mesh"
	// TopologyRandom is a small-world graph: a ring backbone (so the
	// fleet is always connected) plus Fanout seeded random chords per
	// node.
	TopologyRandom = "random"
)

// TopologyKinds returns every known topology kind in presentation
// order.
func TopologyKinds() []string {
	return []string{TopologyRing, TopologyStar, TopologyMesh, TopologyRandom}
}

// TopologySpec declaratively describes how a fleet of devices is wired
// over the M2M fabric. Wiring is a pure function of the spec: the
// random kind derives every chord from harness.ShardSeed(Seed, node),
// so the same spec always compiles to the same adjacency regardless of
// scheduling, parallelism or platform.
type TopologySpec struct {
	// Kind selects the wiring shape. See TopologyKinds.
	Kind string
	// Size is the number of nodes (at least 2).
	Size int
	// Fanout parameterises the wiring density: neighbours per side for
	// ring, random chords per node for random. Default 1. Star and mesh
	// have fixed wiring and take none: Compile rejects a non-zero Fanout
	// for them.
	Fanout int
	// Seed seeds the random kind's chord selection. Used as given; the
	// other kinds ignore it.
	Seed int64
}

// CompiledTopology is a validated TopologySpec with its adjacency
// resolved: an undirected, connected graph over nodes [0, Size).
type CompiledTopology struct {
	// Spec is the normalized spec (defaults filled).
	Spec TopologySpec

	adj [][]int
}

// Compile validates the spec and resolves the wiring.
func (s TopologySpec) Compile() (*CompiledTopology, error) {
	switch s.Kind {
	case TopologyRing, TopologyStar, TopologyMesh, TopologyRandom:
	case "":
		s.Kind = TopologyRing
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q (known: %v)", s.Kind, TopologyKinds())
	}
	if s.Size < 2 {
		return nil, fmt.Errorf("scenario: topology %s with %d nodes (want >= 2)", s.Kind, s.Size)
	}
	if s.Fanout < 0 {
		return nil, fmt.Errorf("scenario: topology %s with negative fanout %d", s.Kind, s.Fanout)
	}
	if s.Fanout != 0 && (s.Kind == TopologyStar || s.Kind == TopologyMesh) {
		return nil, fmt.Errorf("scenario: topology %s takes no fanout (got %d): its wiring is fixed", s.Kind, s.Fanout)
	}
	if s.Fanout == 0 {
		s.Fanout = 1
	}
	if (s.Kind == TopologyRing || s.Kind == TopologyRandom) && 2*s.Fanout >= s.Size {
		return nil, fmt.Errorf("scenario: topology %s fanout %d too dense for %d nodes", s.Kind, s.Fanout, s.Size)
	}

	t := &CompiledTopology{Spec: s}
	edges := make(map[[2]int]bool)
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		edges[[2]int{a, b}] = true
	}
	switch s.Kind {
	case TopologyRing:
		for i := 0; i < s.Size; i++ {
			for k := 1; k <= s.Fanout; k++ {
				addEdge(i, (i+k)%s.Size)
			}
		}
	case TopologyStar:
		for i := 1; i < s.Size; i++ {
			addEdge(0, i)
		}
	case TopologyMesh:
		for i := 0; i < s.Size; i++ {
			for j := i + 1; j < s.Size; j++ {
				addEdge(i, j)
			}
		}
	case TopologyRandom:
		// Ring backbone guarantees connectivity; chords come from a
		// per-node derived seed, so node i's chords never depend on any
		// other node's draw order.
		for i := 0; i < s.Size; i++ {
			addEdge(i, (i+1)%s.Size)
		}
		for i := 0; i < s.Size; i++ {
			draw := uint64(harness.ShardSeed(s.Seed, i))
			for k := 0; k < s.Fanout; k++ {
				// SplitMix64 step over the node's stream.
				draw += 0x9e3779b97f4a7c15
				z := draw
				z ^= z >> 30
				z *= 0xbf58476d1ce4e5b9
				z ^= z >> 27
				z *= 0x94d049bb133111eb
				z ^= z >> 31
				// Map into the Size-2 candidates that are not i itself
				// and not its ring successor (already wired).
				j := int(z % uint64(s.Size))
				for j == i || j == (i+1)%s.Size {
					j = (j + 1) % s.Size
				}
				addEdge(i, j)
			}
		}
	}

	t.adj = make([][]int, s.Size)
	for e := range edges {
		t.adj[e[0]] = append(t.adj[e[0]], e[1])
		t.adj[e[1]] = append(t.adj[e[1]], e[0])
	}
	for i := range t.adj {
		sort.Ints(t.adj[i])
	}
	return t, nil
}

// Size returns the node count.
func (t *CompiledTopology) Size() int { return t.Spec.Size }

// Neighbors returns node i's neighbours in ascending order. The slice
// is the topology's own; callers must not mutate it.
func (t *CompiledTopology) Neighbors(i int) []int { return t.adj[i] }

// NumEdges returns the number of undirected links.
func (t *CompiledTopology) NumEdges() int {
	n := 0
	for _, a := range t.adj {
		n += len(a)
	}
	return n / 2
}

// Edges enumerates the undirected links in deterministic (lexicographic)
// order.
func (t *CompiledTopology) Edges() [][2]int {
	var out [][2]int
	for i, neigh := range t.adj {
		for _, j := range neigh {
			if i < j {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}
