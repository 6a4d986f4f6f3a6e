package cres

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cres/internal/harness"
	"cres/internal/scenario"
)

// e13TestConfig is the default E13 matrix at the suite's root seed —
// the shape the golden file pins.
func e13TestConfig() E13Config { return E13Config{RootSeed: 7} }

// TestE13Golden pins the networked-fleet resilience table two ways:
// byte-identical between -parallel 1 and 8 (the worm schedules every
// hop on the cell's own engine, so parallelism must be invisible), and
// byte-identical to the committed golden file. The table holds only
// virtual-time quantities, so it is stable across hosts and Go
// releases. Regenerate with:
//
//	go test -run TestE13Golden -update-golden .
func TestE13Golden(t *testing.T) {
	serial, err := RunE13WormResilience(e13TestConfig(), harness.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE13WormResilience(e13TestConfig(), harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	got := serial.Table.Render()
	if p := parallel.Table.Render(); got != p {
		t.Fatalf("E13 table depends on parallelism:\n--- p1 ---\n%s\n--- p8 ---\n%s", got, p)
	}

	golden := filepath.Join("testdata", "swarm_golden.txt")
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
		t.Fatalf("E13 table drifted from %s (re-run with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestE13CooperationDominatesIsolation is the paper-level claim the
// experiment exists to check: in the default matrix, gossiping fleets
// save strictly more devices than fleets whose members defend alone —
// in every single (wiring, dwell) row, not just on average.
func TestE13CooperationDominatesIsolation(t *testing.T) {
	res, err := RunE13WormResilience(e13TestConfig(), harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CoopDominatesIsolated {
		t.Fatalf("cooperative mode does not strictly dominate isolated mode on devices saved:\n%s", res.Table.Render())
	}
	if res.SavedByGossip <= 0 {
		t.Fatalf("gossip saved %d devices in total (want > 0)", res.SavedByGossip)
	}
	byKey := make(map[string]map[string]E13Cell)
	for _, c := range res.Cells {
		key := c.Topology + "/" + c.Dwell.String() + "/" + string(rune('0'+c.Fanout))
		if byKey[key] == nil {
			byKey[key] = make(map[string]E13Cell)
		}
		byKey[key][c.Mode] = c
	}
	for key, modes := range byKey {
		iso, coop := modes[SwarmIsolated], modes[SwarmCooperative]
		if coop.Saved <= iso.Saved {
			t.Errorf("%s: coop saved %d, isolated saved %d — no strict domination", key, coop.Saved, iso.Saved)
		}
		if coop.Blocked == 0 {
			t.Errorf("%s: cooperative mode blocked no propagation attempts", key)
		}
		if base := modes[SwarmBaseline]; base.Informed != 0 || base.Detected {
			t.Errorf("%s: baseline mode must not detect or gossip (informed=%d detected=%v)", key, base.Informed, base.Detected)
		}
		if !coop.Detected {
			t.Errorf("%s: patient zero undetected in cooperative mode", key)
		}
	}
}

// TestE13WormSpreadsWithoutCooperation pins the threat side: with no
// cooperative response, a connected wiring lets the worm take the
// whole fleet — which is exactly why the isolated rows save nobody.
func TestE13WormSpreadsWithoutCooperation(t *testing.T) {
	res, err := RunE13WormResilience(E13Config{
		RootSeed:   11,
		Topologies: []scenario.TopologySpec{{Kind: scenario.TopologyRing, Size: 6}},
		Dwells:     []time.Duration{time.Millisecond},
		Modes:      []string{SwarmBaseline, SwarmIsolated},
	}, harness.NewPool(2))
	if err != nil {
		t.Fatal(err)
	}
	if title, _, _ := strings.Cut(res.Table.Render(), "\n"); !strings.Contains(title, "6-device fleets") {
		t.Errorf("title %q, want it to name the 6-device ring that ran", title)
	}
	for _, c := range res.Cells {
		if c.Infected != 6 {
			t.Errorf("%s: %d/6 infected, want full spread", c.Mode, c.Infected)
		}
		if c.Saved != 0 || c.LinksCut != 0 {
			t.Errorf("%s: saved=%d links cut=%d, want zeros", c.Mode, c.Saved, c.LinksCut)
		}
	}
}
