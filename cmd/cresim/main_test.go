package main

import "testing"

func TestList(t *testing.T) {
	if err := run(options{list: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFleetSmoke(t *testing.T) {
	if err := run(options{fleet: 512, parallel: 2, seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTreeMode(t *testing.T) {
	if err := run(options{tree: "2:2", parallel: 2, seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTreeModeBadShape(t *testing.T) {
	for _, bad := range []string{"2", "2:4:8", "x:2", "2:y", "0:2", "1:1"} {
		if err := run(options{tree: bad, seed: 7}); err == nil {
			t.Errorf("-tree %q accepted", bad)
		}
	}
}

func TestRunSingleScenarioCRES(t *testing.T) {
	if err := run(options{scenario: "secure-probe", arch: "cres", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleScenarioBaseline(t *testing.T) {
	if err := run(options{scenario: "secure-probe", arch: "baseline", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioListBothArchitectures(t *testing.T) {
	if err := run(options{scenario: "secure-probe, code-injection", arch: "both", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBuiltinPlan(t *testing.T) {
	if err := run(options{plan: "network-takeover", arch: "cres", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustomPlanSyntax(t *testing.T) {
	if err := run(options{plan: "secure-probe@0,log-wipe@5ms*2", arch: "cres", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownScenario(t *testing.T) {
	if err := run(options{scenario: "nope", arch: "cres", seed: 7}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestUnknownPlan(t *testing.T) {
	if err := run(options{plan: "nope", arch: "cres", seed: 7}); err == nil {
		t.Fatal("unknown plan accepted")
	}
}

func TestUnknownArchitecture(t *testing.T) {
	if err := run(options{scenario: "secure-probe", arch: "riscv", seed: 7}); err == nil {
		t.Fatal("unknown architecture accepted")
	}
}

func TestNothingSelected(t *testing.T) {
	if err := run(options{arch: "cres", seed: 7}); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestCampaignMode(t *testing.T) {
	if err := run(options{campaign: true, seed: 7, shards: 1, parallel: 2, plan: "implant-persist"}); err != nil {
		t.Fatal(err)
	}
}
