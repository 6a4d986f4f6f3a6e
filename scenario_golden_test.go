package cres

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cres/internal/harness"
	"cres/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestCompiledCampaignGolden pins a compiled campaign's rendered table
// two ways: byte-identical between -parallel 1 and 8 (the determinism
// contract the declarative layer inherits from the harness), and
// byte-identical to the committed golden file (so an accidental change
// to spec compilation, cell enumeration, seed derivation or rendering
// shows up as a readable diff). Regenerate with:
//
//	go test -run TestCompiledCampaignGolden -update-golden .
//
// The table holds only virtual-time quantities, so it is stable across
// hosts and Go releases.
func TestCompiledCampaignGolden(t *testing.T) {
	cfg := scenario.CampaignSpec{
		RootSeed:  7,
		Seeds:     2,
		Scenarios: []string{"secure-probe", "firmware-tamper"},
		Plans:     scenario.BuiltinPlans()[:1],
	}
	serial, err := RunE12Campaign(cfg, harness.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE12Campaign(cfg, harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	got := serial.Table.Render()
	if p := parallel.Table.Render(); got != p {
		t.Fatalf("compiled campaign table depends on parallelism:\n--- p1 ---\n%s\n--- p8 ---\n%s", got, p)
	}

	golden := filepath.Join("testdata", "campaign_golden.txt")
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
		t.Fatalf("compiled campaign table drifted from %s (re-run with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
