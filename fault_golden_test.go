package cres

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cres/internal/harness"
	"cres/internal/scenario"
)

// e14TestConfig is the default E14 matrix at the suite's root seed —
// the shape the golden file pins.
func e14TestConfig() E14Config { return E14Config{RootSeed: 7} }

// TestE14Golden pins the closed-loop recovery table two ways:
// byte-identical between -parallel 1 and 8 (every fault is a pure
// function of the plan seed and the link or device it hits, so
// parallelism must be invisible), and byte-identical to the committed
// golden file. The table holds only virtual-time quantities, so it is
// stable across hosts and Go releases. Regenerate with:
//
//	go test -run TestE14Golden -update-golden .
func TestE14Golden(t *testing.T) {
	serial, err := RunE14FaultRecovery(e14TestConfig(), harness.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE14FaultRecovery(e14TestConfig(), harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	got := serial.Table.Render()
	if p := parallel.Table.Render(); got != p {
		t.Fatalf("E14 table depends on parallelism:\n--- p1 ---\n%s\n--- p8 ---\n%s", got, p)
	}

	golden := filepath.Join("testdata", "fault_golden.txt")
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
		t.Fatalf("E14 table drifted from %s (re-run with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestE14RecoveryDominates is the experiment's headline claim: closing
// the recovery loop reaches full service strictly faster than stopping
// at containment in EVERY (topology, fault level) row of the default
// matrix — including the highest fault intensity, where the fabric
// drops a fifth of all traffic, 40% of the fleet crashes mid-campaign
// and the verifier goes dark three times.
func TestE14RecoveryDominates(t *testing.T) {
	res, err := RunE14FaultRecovery(e14TestConfig(), harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.RecoveryDominates {
		t.Fatalf("recovery does not strictly dominate containment on TTFS:\n%s", res.Table.Render())
	}
	if res.MeanTTFSGain <= 0 {
		t.Fatalf("mean TTFS gain %v, want > 0", res.MeanTTFSGain)
	}
	byRow := make(map[int]map[string]E14Cell)
	for _, c := range res.Cells {
		row := c.Index / 2
		if byRow[row] == nil {
			byRow[row] = make(map[string]E14Cell)
		}
		byRow[row][c.Mode] = c
	}
	for row, modes := range byRow {
		contain, rec := modes[FaultModeContain], modes[FaultModeRecover]
		if rec.TTFS >= contain.TTFS {
			t.Errorf("row %d (%s/%s): recover TTFS %v not strictly below contain %v",
				row, rec.Topology, rec.Level, rec.TTFS, contain.TTFS)
		}
		if !rec.FullService {
			t.Errorf("row %d (%s/%s): recover mode never reached full service", row, rec.Topology, rec.Level)
		}
		if contain.FullService {
			t.Errorf("row %d (%s/%s): contain mode claims full service without recovering anyone", row, contain.Topology, contain.Level)
		}
		if rec.Recovered == 0 {
			t.Errorf("row %d (%s/%s): recover mode verified nobody clean", row, rec.Topology, rec.Level)
		}
		// Both modes of a row share one fault plan, so the damage they
		// must recover from is measured against the same campaign.
		if rec.FaultSeed != contain.FaultSeed {
			t.Errorf("row %d: fault seeds differ between modes (%d vs %d)", row, rec.FaultSeed, contain.FaultSeed)
		}
		if rec.Crashes != contain.Crashes {
			t.Errorf("row %d: crash schedules differ between modes (%d vs %d)", row, rec.Crashes, contain.Crashes)
		}
	}
}

// TestE14FaultsActuallyHurt pins that the fault axis is live: at the
// highest intensity the fabric must have dropped gossip, and the
// recovery loop must have needed attestation retries somewhere in the
// matrix — otherwise the sweep is measuring a perfect network and the
// "under fault injection" claim is vacuous.
func TestE14FaultsActuallyHurt(t *testing.T) {
	res, err := RunE14FaultRecovery(e14TestConfig(), harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	var highDropped, noneDropped, retries uint64
	for _, c := range res.Cells {
		switch c.Level {
		case "high":
			highDropped += c.GossipDropped
			retries += c.Retries
		case "none":
			noneDropped += c.GossipDropped
		}
	}
	if highDropped == 0 {
		t.Error("high-intensity cells dropped no gossip — fault injector not wired")
	}
	if noneDropped != 0 {
		t.Errorf("fault-free cells dropped %d gossip messages, want 0", noneDropped)
	}
	if retries == 0 {
		t.Error("high-intensity recovery needed no attestation retries — retry path not exercised")
	}
}

// TestE14TitleNamesTheFleetsThatRan pins that the table's title states
// the sizes of the wirings the sweep ran, not the default sweep's: a
// caller's lone 5-device star is titled "5-device fleets", and wirings
// of two sizes name both.
func TestE14TitleNamesTheFleetsThatRan(t *testing.T) {
	star5 := scenario.TopologySpec{Kind: scenario.TopologyStar, Size: 5}
	ring6 := scenario.TopologySpec{Kind: scenario.TopologyRing, Size: 6}
	for _, tc := range []struct {
		topos []scenario.TopologySpec
		want  string
	}{
		{[]scenario.TopologySpec{star5}, "5-device fleets"},
		{[]scenario.TopologySpec{star5, ring6, star5}, "5/6-device fleets"},
	} {
		res, err := RunE14FaultRecovery(E14Config{RootSeed: 7, Topologies: tc.topos, Levels: DefaultFaultLevels()[2:]}, harness.NewPool(2))
		if err != nil {
			t.Fatal(err)
		}
		if title, _, _ := strings.Cut(res.Table.Render(), "\n"); !strings.Contains(title, tc.want) {
			t.Errorf("title %q, want %q", title, tc.want)
		}
	}
}

// TestE13FaultFreeByteIdentical is the no-op contract of the fault
// layer: E13 runs every cell under the plan the zero fault spec
// compiles to, which must be disabled, and must reproduce the
// committed E13 golden byte-for-byte. Faults off means off — no draw
// consumed, no schedule perturbed, no extra gossip armed.
func TestE13FaultFreeByteIdentical(t *testing.T) {
	plan, err := (scenario.FaultSpec{}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Enabled() {
		t.Fatal("zero fault spec compiled to an enabled plan")
	}
	res, err := RunE13WormResilience(e13TestConfig(), harness.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "swarm_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != string(want) {
		t.Fatalf("zero-fault E13 run drifted from the fault-free golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
