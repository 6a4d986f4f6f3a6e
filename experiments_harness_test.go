package cres

import (
	"testing"

	"cres/internal/harness"
)

// These tests pin the harness integration contract: fanning an
// experiment across workers must not change a byte of its output, and
// sharded fleets must merge to the same totals as unsharded ones.

func TestE3DeterministicAcrossParallelism(t *testing.T) {
	serial, err := RunE3DetectionMatrix(7, harness.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE3DetectionMatrix(7, harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Table.Render(), parallel.Table.Render()
	if a != b {
		t.Fatalf("E3 output depends on parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
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
