package cres

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cres/internal/fleet"
	"cres/internal/harness"
)

// TestHierarchyGolden pins the E15 hierarchical re-attestation table
// two ways: byte-identical between -parallel 1 and 8 (node keys,
// coefficients and tier aggregation all derive from (seed, node
// index), so pool width can only reorder work, never bytes), and
// byte-identical to the committed golden, so any change to the signing
// chain, the merge algebra, the excision rules or the virtual-time
// model shows up as a readable diff. Regenerate with:
//
//	go test -run TestHierarchyGolden -update-golden .
//
// Every cell is a virtual-time or counting quantity — no host
// clocks — so the table is stable across hosts and Go releases.
func TestHierarchyGolden(t *testing.T) {
	serial, err := RunE15Hierarchy(E15Config{RootSeed: 7}, harness.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE15Hierarchy(E15Config{RootSeed: 7}, harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	got := serial.Table.Render()
	if p := parallel.Table.Render(); got != p {
		t.Fatalf("hierarchy table depends on parallelism:\n--- p1 ---\n%s\n--- p8 ---\n%s", got, p)
	}

	golden := filepath.Join("testdata", "hierarchy_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("hierarchy table drifted from %s (re-run with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestE15LyingVerifierDetected is the acceptance test for the
// hierarchy's guarantee: for every default depth × fan-out shape, a
// verifier forging its merged summary at ANY interior tier — root
// included — is detected, attributed to the right node, and excised so
// the final fleet summary still equals the honest one.
func TestE15LyingVerifierDetected(t *testing.T) {
	for _, shape := range E15Shapes(false) {
		ct, err := E15TreeSpec(shape).Compile()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ct.Tree(7)
		if err != nil {
			t.Fatal(err)
		}
		honest, err := tr.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		for tier := 1; tier <= tr.Depth(); tier++ {
			// Both ends of the tier: index 0 and the last node, so ragged
			// and boundary positions are covered.
			for _, index := range []int{0, tr.Tiers()[tier] - 1} {
				liar := fleet.NodeID{Tier: tier, Index: index}
				res, err := tr.RunForged(nil, fleet.Forge{Node: liar, Mode: fleet.ForgeSummary})
				if err != nil {
					t.Fatalf("%dx%d liar %s: %v", shape.Depth, shape.Fanout, liar, err)
				}
				if len(res.Detections) != 1 {
					t.Fatalf("%dx%d liar %s: %d detections, want 1: %+v",
						shape.Depth, shape.Fanout, liar, len(res.Detections), res.Detections)
				}
				det := res.Detections[0]
				if det.Liar != liar {
					t.Errorf("%dx%d liar %s: attributed to %s", shape.Depth, shape.Fanout, liar, det.Liar)
				}
				if det.Kind != "forged-merge" {
					t.Errorf("%dx%d liar %s: kind %q, want forged-merge", shape.Depth, shape.Fanout, liar, det.Kind)
				}
				if wantTier := tier + 1; det.By.Tier != wantTier {
					t.Errorf("%dx%d liar %s: detected at tier %d, want direct parent tier %d",
						shape.Depth, shape.Fanout, liar, det.By.Tier, wantTier)
				}
				if !bytes.Equal(res.Summary.AppendCanonical(nil), honest.Summary.AppendCanonical(nil)) {
					t.Errorf("%dx%d liar %s: excised summary differs from honest summary", shape.Depth, shape.Fanout, liar)
				}
			}
		}
	}
}
