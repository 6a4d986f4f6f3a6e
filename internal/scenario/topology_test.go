package scenario

import (
	"reflect"
	"testing"
)

func compileTopo(t *testing.T, s TopologySpec) *CompiledTopology {
	t.Helper()
	ct, err := s.Compile()
	if err != nil {
		t.Fatalf("compile %+v: %v", s, err)
	}
	return ct
}

// connected reports whether the compiled graph is one component.
func connected(t *CompiledTopology) bool {
	seen := make([]bool, t.Size())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range t.Neighbors(i) {
			if !seen[j] {
				seen[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	return count == t.Size()
}

func TestTopologyCompileShapes(t *testing.T) {
	ring := compileTopo(t, TopologySpec{Kind: TopologyRing, Size: 6})
	for i := 0; i < 6; i++ {
		if got := len(ring.Neighbors(i)); got != 2 {
			t.Errorf("ring node %d has %d neighbours, want 2", i, got)
		}
	}
	if ring.NumEdges() != 6 {
		t.Errorf("ring(6) has %d edges, want 6", ring.NumEdges())
	}

	star := compileTopo(t, TopologySpec{Kind: TopologyStar, Size: 6})
	if got := len(star.Neighbors(0)); got != 5 {
		t.Errorf("star hub has %d neighbours, want 5", got)
	}
	for i := 1; i < 6; i++ {
		if !reflect.DeepEqual(star.Neighbors(i), []int{0}) {
			t.Errorf("star spoke %d neighbours = %v, want [0]", i, star.Neighbors(i))
		}
	}

	mesh := compileTopo(t, TopologySpec{Kind: TopologyMesh, Size: 5})
	if mesh.NumEdges() != 10 {
		t.Errorf("mesh(5) has %d edges, want 10", mesh.NumEdges())
	}

	for _, topo := range []*CompiledTopology{ring, star, mesh,
		compileTopo(t, TopologySpec{Kind: TopologyRandom, Size: 12, Fanout: 2, Seed: 3}),
	} {
		if !connected(topo) {
			t.Errorf("%s topology disconnected", topo.Spec.Kind)
		}
		for i := 0; i < topo.Size(); i++ {
			if !sortedUnique(topo.Neighbors(i)) {
				t.Errorf("%s node %d neighbours %v not sorted/unique", topo.Spec.Kind, i, topo.Neighbors(i))
			}
			for _, j := range topo.Neighbors(i) {
				if j == i {
					t.Errorf("%s node %d has a self-loop", topo.Spec.Kind, i)
				}
			}
		}
	}
}

func sortedUnique(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// TestTopologyCompileDeterminism pins the wiring contract: compiling
// the same spec twice yields identical adjacency, and the random
// kind's wiring depends only on its seed.
func TestTopologyCompileDeterminism(t *testing.T) {
	spec := TopologySpec{Kind: TopologyRandom, Size: 16, Fanout: 3, Seed: 42}
	a, b := compileTopo(t, spec), compileTopo(t, spec)
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("same spec compiled to different wirings")
	}
	other := spec
	other.Seed = 43
	if reflect.DeepEqual(a.Edges(), compileTopo(t, other).Edges()) {
		t.Fatal("different seeds compiled to identical random wirings")
	}
}

func TestTopologyCompileErrors(t *testing.T) {
	cases := []TopologySpec{
		{Kind: "torus", Size: 4},                   // unknown kind
		{Kind: TopologyRing, Size: 1},              // too small
		{Kind: TopologyRing, Size: 0},              // no size
		{Kind: TopologyRing, Size: 6, Fanout: -1},  // negative fanout
		{Kind: TopologyRing, Size: 6, Fanout: 3},   // too dense
		{Kind: TopologyRandom, Size: 4, Fanout: 2}, // too dense
		{Kind: TopologyStar, Size: 5, Fanout: 3},   // star wiring is fixed
		{Kind: TopologyMesh, Size: 4, Fanout: 1},   // mesh wiring is fixed
	}
	for _, s := range cases {
		if _, err := s.Compile(); err == nil {
			t.Errorf("spec %+v compiled, want error", s)
		}
	}
	// Empty kind defaults to ring.
	ct := compileTopo(t, TopologySpec{Size: 4})
	if ct.Spec.Kind != TopologyRing {
		t.Errorf("default kind = %q, want ring", ct.Spec.Kind)
	}
}
