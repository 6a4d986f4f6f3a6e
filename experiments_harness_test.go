package cres

import (
	"os"
	"path/filepath"
	"testing"

	"cres/internal/harness"
)

// These tests pin the harness integration contract: fanning an
// experiment across workers must not change a byte of its output, and
// sharded fleets must merge to the same totals as unsharded ones.

// TestE3DeterministicAcrossParallelism pins the detection tables, E3
// and E3b, two ways: byte-identical between -parallel 1 and 8, and
// byte-identical to the committed golden file, so a moved latency or
// row shows up as a readable diff. Regenerate with:
//
//	go test -run TestE3DeterministicAcrossParallelism -update-golden .
func TestE3DeterministicAcrossParallelism(t *testing.T) {
	render := func(workers int) string {
		pool := harness.NewPool(workers)
		e3, err := RunE3DetectionMatrix(7, pool)
		if err != nil {
			t.Fatal(err)
		}
		e3b, err := RunE3bDetectionAblation(7, pool)
		if err != nil {
			t.Fatal(err)
		}
		return e3.Table.Render() + "\n" + e3b.Table.Render()
	}
	got := render(1)
	if p := render(8); got != p {
		t.Fatalf("detection tables depend on parallelism:\n--- p1 ---\n%s\n--- p8 ---\n%s", got, p)
	}

	golden := filepath.Join("testdata", "detect_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("detection tables drifted from %s (re-run with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

func TestE10DeterministicAcrossParallelism(t *testing.T) {
	serial, err := RunE10CovertChannel(7, harness.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE10CovertChannel(7, harness.NewPool(6))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serial.Table.Render(), parallel.Table.Render(); a != b {
		t.Fatalf("E10 output depends on parallelism:\n%s\nvs\n%s", a, b)
	}
}

// TestE8ShardedFleet crosses the verifier-shard boundary: a 5000-device
// fleet must split into two shards and still catch every tampered
// device with no false alarms — including devices whose global index
// needs more than three digits (the Sscanf %03d truncation class this
// sweep originally shipped with; identity is now the index itself, so
// no parse exists to truncate).
func TestE8ShardedFleet(t *testing.T) {
	res, err := RunE8FleetAttestation([]int{5000}, 7, harness.NewPool(2))
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Shards != 2 {
		t.Fatalf("5000 devices split into %d shards, want 2", row.Shards)
	}
	s := row.Summary
	if s.Tampered != 625 {
		t.Fatalf("tampered = %d, want 625 (1 in 8)", s.Tampered)
	}
	if s.Caught != s.Tampered {
		t.Fatalf("caught %d of %d tampered\n%s", s.Caught, s.Tampered, res.Table.Render())
	}
	if s.FalseAlarms != 0 {
		t.Fatalf("false alarms = %d", s.FalseAlarms)
	}
	if s.Completion <= 0 {
		t.Fatalf("completion = %v", s.Completion)
	}
}

func TestFleetSizes(t *testing.T) {
	quick := FleetSizes(true)
	full := FleetSizes(false)
	if len(quick) >= len(full) {
		t.Fatal("quick sweep should be smaller than full")
	}
	if max := full[len(full)-1]; max != 1<<20 {
		t.Fatalf("full sweep tops out at %d devices, want 1048576", max)
	}
}
