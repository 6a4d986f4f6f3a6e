package fleet

import (
	"bytes"
	"testing"

	"cres/internal/harness"
)

// treeConfig returns an engine config yielding n devices in shards of
// 128, with the every-8th tamper rule — small enough to run the full
// hierarchy several times per test.
func treeConfig(n int) Config {
	cfg := refConfig(n)
	cfg.ShardSize = 128
	cfg.BatchSize = 64
	return cfg
}

func newTestTree(t *testing.T, devices, fanout int) *Tree {
	t.Helper()
	eng, err := New(treeConfig(devices))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(eng, TreeConfig{Fanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTreeHonestMatchesFlat(t *testing.T) {
	tr := newTestTree(t, 1024, 2) // 8 leaves, tiers [8 4 2 1]
	if got, want := tr.Depth(), 3; got != want {
		t.Fatalf("Depth = %d, want %d", got, want)
	}
	res, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tr.eng.RunParallel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSummary(res.Summary, flat) {
		t.Errorf("tree summary differs from flat engine summary:\ntree %+v\nflat %+v", res.Summary, flat)
	}
	if !sameSummary(res.Root.Summary, flat) {
		t.Errorf("root attestation summary differs from flat summary")
	}
	if len(res.Detections) != 0 {
		t.Errorf("honest run produced detections: %+v", res.Detections)
	}
	if res.SigChecks == 0 {
		t.Error("honest run performed no signature checks")
	}
	// The point of the hierarchy: no checker ever holds more than its
	// own batch — direct children plus their forwarded records.
	if max := 2 * (1 + 2); res.MaxHeld > max {
		t.Errorf("MaxHeld = %d, want <= %d (fanout bound)", res.MaxHeld, max)
	}
	if res.Completion <= flat.Completion {
		t.Errorf("tree completion %v not after flat completion %v", res.Completion, flat.Completion)
	}
}

func TestTreeDeterministicAcrossPools(t *testing.T) {
	tr := newTestTree(t, 1024, 4) // 8 leaves, tiers [8 2 1]
	serial, err := tr.RunForged(nil, Forge{Node: NodeID{Tier: 1, Index: 1}, Mode: ForgeSummary})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := tr.RunForged(harness.NewPool(8), Forge{Node: NodeID{Tier: 1, Index: 1}, Mode: ForgeSummary})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSummary(serial.Summary, wide.Summary) {
		t.Error("summary differs across pool widths")
	}
	if !bytes.Equal(serial.Root.Sig, wide.Root.Sig) {
		t.Error("root signature differs across pool widths")
	}
	if serial.SigChecks != wide.SigChecks || serial.MaxHeld != wide.MaxHeld || serial.Completion != wide.Completion {
		t.Errorf("counters differ across pool widths: %+v vs %+v", serial, wide)
	}
	if len(serial.Detections) != len(wide.Detections) {
		t.Fatalf("detections differ: %d vs %d", len(serial.Detections), len(wide.Detections))
	}
	for i := range serial.Detections {
		if serial.Detections[i] != wide.Detections[i] {
			t.Errorf("detection %d differs: %+v vs %+v", i, serial.Detections[i], wide.Detections[i])
		}
	}
}

// TestTreeForgeSummaryDetectedAtEveryTier is the hierarchy's core
// guarantee: a verifier forging its merged summary at any interior
// tier — the root included — is detected by its direct parent (the
// operator, for the root), attributed correctly, and excised so the
// final fleet summary is still the honest one.
func TestTreeForgeSummaryDetectedAtEveryTier(t *testing.T) {
	tr := newTestTree(t, 1024, 2) // tiers [8 4 2 1]
	flat, err := tr.eng.RunParallel(nil)
	if err != nil {
		t.Fatal(err)
	}
	for tier := 1; tier <= tr.Depth(); tier++ {
		liar := NodeID{Tier: tier, Index: tr.Tiers()[tier] - 1}
		res, err := tr.RunForged(nil, Forge{Node: liar, Mode: ForgeSummary})
		if err != nil {
			t.Fatalf("tier %d: %v", tier, err)
		}
		if len(res.Detections) != 1 {
			t.Fatalf("tier %d: %d detections, want 1: %+v", tier, len(res.Detections), res.Detections)
		}
		det := res.Detections[0]
		if det.Liar != liar {
			t.Errorf("tier %d: attributed %s, want %s", tier, det.Liar, liar)
		}
		wantBy := NodeID{Tier: tier + 1, Index: liar.Index / 2}
		if det.By != wantBy {
			t.Errorf("tier %d: detected by %s, want %s", tier, det.By, wantBy)
		}
		if det.Kind != "forged-merge" {
			t.Errorf("tier %d: kind %q, want forged-merge", tier, det.Kind)
		}
		if det.Lag <= 0 {
			t.Errorf("tier %d: non-positive detection lag %v", tier, det.Lag)
		}
		if !sameSummary(res.Summary, flat) {
			t.Errorf("tier %d: excised summary differs from honest flat summary", tier)
		}
	}
}

func TestTreeForgeTamperDetected(t *testing.T) {
	tr := newTestTree(t, 1024, 2)
	flat, err := tr.eng.RunParallel(nil)
	if err != nil {
		t.Fatal(err)
	}
	// A tampered record at any tier — leaf (retry path), interior
	// (excision) and root (operator check) — is caught as a signature
	// failure and the summary still comes out honest.
	for _, liar := range []NodeID{
		{Tier: 0, Index: 5},
		{Tier: 1, Index: 2},
		{Tier: tr.Depth(), Index: 0},
	} {
		res, err := tr.RunForged(nil, Forge{Node: liar, Mode: ForgeTamper})
		if err != nil {
			t.Fatalf("%s: %v", liar, err)
		}
		if len(res.Detections) != 1 {
			t.Fatalf("%s: %d detections, want 1: %+v", liar, len(res.Detections), res.Detections)
		}
		det := res.Detections[0]
		if det.Liar != liar {
			t.Errorf("%s: attributed %s", liar, det.Liar)
		}
		if det.Kind != "bad-signature" {
			t.Errorf("%s: kind %q, want bad-signature", liar, det.Kind)
		}
		if !sameSummary(res.Summary, flat) {
			t.Errorf("%s: summary differs from honest flat summary", liar)
		}
	}
}

func TestTreeRaggedShapeMatchesFlat(t *testing.T) {
	tr := newTestTree(t, 1280, 4) // 10 leaves: tiers [10 3 1], ragged
	if got, want := len(tr.Tiers()), 3; got != want {
		t.Fatalf("tiers %v, want 3 tiers", tr.Tiers())
	}
	res, err := tr.Run(harness.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tr.eng.RunParallel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSummary(res.Summary, flat) {
		t.Error("ragged tree summary differs from flat summary")
	}
	if len(res.Detections) != 0 {
		t.Errorf("honest ragged run produced detections: %+v", res.Detections)
	}
}

func TestTreeConfigErrors(t *testing.T) {
	eng, err := New(treeConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTree(eng, TreeConfig{Fanout: 1}); err == nil {
		t.Error("fanout 1 accepted")
	}
	single, err := New(refConfig(100)) // one shard: no hierarchy
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTree(single, TreeConfig{Fanout: 2}); err == nil {
		t.Error("single-shard engine accepted")
	}
	tr, err := NewTree(eng, TreeConfig{Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunForged(nil, Forge{Node: NodeID{Tier: 0, Index: 0}, Mode: ForgeSummary}); err == nil {
		t.Error("leaf summary forge accepted; leaves have no attested inputs to re-merge")
	}
	if _, err := tr.RunForged(nil, Forge{Node: NodeID{Tier: 9, Index: 0}, Mode: ForgeTamper}); err == nil {
		t.Error("out-of-range forge node accepted")
	}
}
