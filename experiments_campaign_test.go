package cres

import (
	"strings"
	"testing"

	"cres/internal/attack"
	"cres/internal/harness"
	"cres/internal/scenario"
)

func TestE12CampaignOutcomes(t *testing.T) {
	res, err := RunE12Campaign(scenario.CampaignSpec{RootSeed: 7, Seeds: 2}, harness.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	attacks := len(attack.All()) + len(scenario.BuiltinPlans())
	if want := attacks * 2 * 2; len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	if res.CRESDetectRate != 1.0 {
		t.Fatalf("CRES detection rate = %v\n%s", res.CRESDetectRate, res.Table.Render())
	}
	if res.BaselineDetectRate != 0.0 {
		t.Fatalf("baseline detection rate = %v", res.BaselineDetectRate)
	}
	if res.CRESRecoverRate != 1.0 {
		t.Fatalf("CRES recovery rate = %v\n%s", res.CRESRecoverRate, res.Table.Render())
	}
	plans := 0
	for _, cell := range res.Cells {
		if cell.Arch == "baseline" && (cell.Responded || cell.Recovered) {
			t.Errorf("baseline cell %s claims response/recovery", cell.Scenario)
		}
		if cell.Arch == "cres" && cell.Detected && cell.Latency < 0 {
			t.Errorf("cres cell %s has negative latency", cell.Scenario)
		}
		if cell.Kind == scenario.KindPlan {
			plans++
		}
	}
	// Every built-in staged plan appears in the matrix on both
	// architectures at every seed replica.
	if want := len(scenario.BuiltinPlans()) * 2 * 2; plans != want {
		t.Fatalf("plan cells = %d, want %d", plans, want)
	}
	for _, p := range scenario.BuiltinPlans() {
		if !strings.Contains(res.Table.Render(), p.Name) {
			t.Errorf("table lacks plan row %s", p.Name)
		}
	}
}

// TestE12CampaignDeterministicAcrossParallelism is the determinism
// property the CI gate enforces end-to-end: the campaign matrix —
// staged plans included — must be byte-identical whether cells run
// serially or across 8 workers.
func TestE12CampaignDeterministicAcrossParallelism(t *testing.T) {
	cfg := scenario.CampaignSpec{RootSeed: 7, Seeds: 2,
		Scenarios: []string{"secure-probe", "firmware-tamper", "code-injection"},
		Plans:     scenario.BuiltinPlans()[:1]}
	serial, err := RunE12Campaign(cfg, harness.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE12Campaign(cfg, harness.NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Table.Render(), parallel.Table.Render()
	if a != b {
		t.Fatalf("campaign output depends on parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	for i := range serial.Cells {
		if serial.Cells[i] != parallel.Cells[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, serial.Cells[i], parallel.Cells[i])
		}
	}
}

func TestE12CampaignDefaultsAndSubset(t *testing.T) {
	res, err := RunE12Campaign(scenario.CampaignSpec{RootSeed: 9, Seeds: 1,
		Scenarios: []string{"secure-probe"}, Plans: []scenario.AttackPlan{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (one scenario, two architectures)", len(res.Cells))
	}
	if !strings.Contains(res.Table.Render(), "secure-probe") {
		t.Fatal("table lacks the scenario row")
	}
	// Derived seeds must follow the documented ShardSeed contract.
	for i, cell := range res.Cells {
		if want := harness.ShardSeed(9, i); cell.Seed != want {
			t.Errorf("cell %d seed = %d, want ShardSeed(9, %d) = %d", i, cell.Seed, i, want)
		}
	}
}

// TestE12CampaignRejectsBadSpecs pins that spec validation reaches the
// public API: unknown scenario names fail compilation, not mid-run.
func TestE12CampaignRejectsBadSpecs(t *testing.T) {
	if _, err := RunE12Campaign(scenario.CampaignSpec{Seeds: 1, Scenarios: []string{"ghost"}}, nil); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
	bad := scenario.AttackPlan{Name: "p", Stages: []scenario.PlanStage{{Scenario: "ghost"}}}
	if _, err := RunE12Campaign(scenario.CampaignSpec{Seeds: 1, Plans: []scenario.AttackPlan{bad}}, nil); err == nil {
		t.Fatal("plan with unknown stage scenario accepted")
	}
}

// TestE12CampaignHonorsSeedZero pins that root seed 0 is used as given,
// not silently replaced by a default: its derived cell seeds must differ
// from root seed 7's.
func TestE12CampaignHonorsSeedZero(t *testing.T) {
	cfg := scenario.CampaignSpec{Seeds: 1, Scenarios: []string{"secure-probe"}, Plans: []scenario.AttackPlan{}}
	zero, err := RunE12Campaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range zero.Cells {
		if want := harness.ShardSeed(0, i); cell.Seed != want {
			t.Errorf("cell %d seed = %d, want ShardSeed(0, %d) = %d", i, cell.Seed, i, want)
		}
		if aliased := harness.ShardSeed(7, i); cell.Seed == aliased {
			t.Errorf("cell %d: seed 0 campaign aliases the seed-7 stream", i)
		}
	}
}
