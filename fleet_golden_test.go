package cres

import (
	"os"
	"path/filepath"
	"testing"

	"cres/internal/harness"
)

// TestFleetSummaryGolden pins the E8 streaming-fleet table two ways:
// byte-identical between -parallel 1 and 8 (per-device fate derives
// from (seed, index), so the worker count can only reorder work, never
// results), and byte-identical to the committed golden file, so any
// accidental change to the derivation streams, the virtual-time model,
// the histogram buckets or the bottom-K sample shows up as a readable
// diff. Regenerate with:
//
//	go test -run TestFleetSummaryGolden -update-golden .
//
// The table holds only virtual-time quantities — no host clocks — so
// it is stable across hosts and Go releases. The sizes cross every
// structural boundary: sub-batch (4), multi-batch (512) and
// multi-shard with a partial tail (5000).
func TestFleetSummaryGolden(t *testing.T) {
	sizes := []int{4, 512, 5000}
	serial, err := RunE8FleetAttestation(sizes, 7, harness.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE8FleetAttestation(sizes, 7, harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	got := serial.Table.Render() + "\n" + serial.Series.Render()
	if p := parallel.Table.Render() + "\n" + parallel.Series.Render(); got != p {
		t.Fatalf("fleet table depends on parallelism:\n--- p1 ---\n%s\n--- p8 ---\n%s", got, p)
	}

	golden := filepath.Join("testdata", "fleet_golden.txt")
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
		t.Fatalf("fleet table drifted from %s (re-run with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
