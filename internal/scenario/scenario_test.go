package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"cres/internal/attack"
	"cres/internal/harness"
)

func TestDeviceSpecDefaults(t *testing.T) {
	cd, err := (DeviceSpec{Name: "dut"}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	s := cd.Spec
	if s.Arch != ArchCRES || s.Detection != DetectCombined {
		t.Fatalf("defaults: arch=%q detection=%q", s.Arch, s.Detection)
	}
	if s.FirmwareVersion != 1 || s.FirmwarePayload == nil {
		t.Fatal("firmware defaults not filled")
	}
	if len(DefaultServices()) == 0 || len(DefaultCFG()) == 0 {
		t.Fatal("reference services/CFG empty")
	}
	if MonitorWindow != time.Millisecond || ObservationPeriod != time.Millisecond {
		t.Fatalf("window constants: %v %v", MonitorWindow, ObservationPeriod)
	}
	if !cd.IsCRES() || !cd.SignatureDetection() || !cd.AnomalyDetection() {
		t.Fatal("compiled predicates wrong for the reference device")
	}
}

func TestDeviceSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec DeviceSpec
		want string
	}{
		{"no name", DeviceSpec{}, "needs a name"},
		{"bad arch", DeviceSpec{Name: "d", Arch: "riscv"}, "unknown architecture"},
		{"bad detection", DeviceSpec{Name: "d", Detection: "psychic"}, "unknown detection mode"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Compile(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestDetectionModePredicates(t *testing.T) {
	sig, _ := (DeviceSpec{Name: "d", Detection: DetectSignatureOnly}).Compile()
	if !sig.SignatureDetection() || sig.AnomalyDetection() {
		t.Fatal("signature-only predicates wrong")
	}
	anom, _ := (DeviceSpec{Name: "d", Detection: DetectAnomalyOnly}).Compile()
	if anom.SignatureDetection() || !anom.AnomalyDetection() {
		t.Fatal("anomaly-only predicates wrong")
	}
}

func TestPlanCompileResolvesRegistry(t *testing.T) {
	for _, p := range BuiltinPlans() {
		cp, err := p.Compile()
		if err != nil {
			t.Fatalf("builtin %s: %v", p.Name, err)
		}
		if cp.Scenario().Name() != p.Name {
			t.Errorf("plan %s compiled under name %s", p.Name, cp.Scenario().Name())
		}
		if len(cp.ExpectedSignatures()) == 0 {
			t.Errorf("plan %s expects no signatures", p.Name)
		}
		if cp.Scenario().(attack.Staged).Horizon() <= 0 {
			t.Errorf("plan %s has zero horizon — not multi-stage?", p.Name)
		}
	}
	if len(BuiltinPlans()) < 3 {
		t.Fatalf("only %d built-in plans", len(BuiltinPlans()))
	}
}

func TestPlanCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		plan AttackPlan
		want string
	}{
		{"no name", AttackPlan{}, "needs a name"},
		{"no stages", AttackPlan{Name: "p"}, "no stages"},
		{"unknown scenario", AttackPlan{Name: "p", Stages: []PlanStage{{Scenario: "quantum-tunnel"}}}, "unknown scenario"},
		{"negative delay", AttackPlan{Name: "p", Stages: []PlanStage{{Scenario: "secure-probe", Delay: -1}}}, "negative delay"},
		{"negative repeat", AttackPlan{Name: "p", Stages: []PlanStage{{Scenario: "secure-probe", Repeat: -2}}}, "negative repeat"},
		{"horizon cap", AttackPlan{Name: "p", Stages: []PlanStage{{Scenario: "secure-probe", Delay: 2 * MaxPlanHorizon}}}, "plan horizon"},
		{"overflow", AttackPlan{Name: "p", Stages: []PlanStage{{Scenario: "secure-probe", Delay: time.Duration(math.MaxInt64) - time.Hour, Repeat: math.MaxInt32, Gap: time.Hour}}}, "overflow"},
	}
	for _, tc := range cases {
		if _, err := tc.plan.Compile(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestParsePlans(t *testing.T) {
	all, err := ParsePlans("")
	if err != nil || len(all) != len(BuiltinPlans()) {
		t.Fatalf("empty -plan: %v, %d plans", err, len(all))
	}
	// "none" must be a non-nil empty slice: nil would read as "default
	// to built-ins" at the campaign layer.
	none, err := ParsePlans("none")
	if err != nil || none == nil || len(none) != 0 {
		t.Fatalf("-plan none: %v, %#v", err, none)
	}
	named, err := ParsePlans("network-takeover, implant-persist")
	if err != nil || len(named) != 2 || named[0].Name != "network-takeover" {
		t.Fatalf("named plans: %v, %+v", err, named)
	}
	if _, err := ParsePlans("moon-landing"); err == nil {
		t.Fatal("unknown plan name accepted")
	}

	custom, err := ParsePlans("secure-probe@0,log-wipe@10ms*3,bus-flood")
	if err != nil {
		t.Fatal(err)
	}
	if len(custom) != 1 || len(custom[0].Stages) != 3 {
		t.Fatalf("custom plan: %+v", custom)
	}
	st := custom[0].Stages
	if st[1].Scenario != "log-wipe" || st[1].Delay != 10*time.Millisecond || st[1].Repeat != 3 {
		t.Fatalf("stage 1 parsed as %+v", st[1])
	}
	if st[2].Scenario != "bus-flood" || st[2].Delay != 0 {
		t.Fatalf("stage 2 parsed as %+v", st[2])
	}
	cp, err := custom[0].Compile()
	if err != nil {
		t.Fatal(err)
	}
	if h := cp.Scenario().(attack.Staged).Horizon(); h != 10*time.Millisecond+2*attack.DefaultStageGap {
		t.Fatalf("custom horizon = %v", h)
	}

	for _, bad := range []string{"secure-probe@soon", "secure-probe@1ms*many", "@5ms", ","} {
		if _, err := ParsePlans(bad); err == nil {
			t.Errorf("bad syntax %q accepted", bad)
		}
	}
}

func TestCampaignCompileDefaults(t *testing.T) {
	cc, err := (CampaignSpec{RootSeed: 7, Seeds: 2}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	wantAttacks := len(attack.Names()) + len(BuiltinPlans())
	if len(cc.Attacks) != wantAttacks {
		t.Fatalf("attacks = %d, want %d", len(cc.Attacks), wantAttacks)
	}
	if len(cc.Devices) != 2 || !cc.Devices[0].IsCRES() || cc.Devices[1].IsCRES() {
		t.Fatalf("default devices wrong: %+v", cc.Devices)
	}
	if cc.NumCells() != wantAttacks*2*2 {
		t.Fatalf("cells = %d", cc.NumCells())
	}
	cells := cc.Cells()
	if len(cells) != cc.NumCells() {
		t.Fatalf("Cells() = %d, NumCells = %d", len(cells), cc.NumCells())
	}
	for i, cell := range cells {
		if cell.Index != i {
			t.Fatalf("cell %d indexed %d", i, cell.Index)
		}
		if cell.Seed != harness.ShardSeed(7, i) {
			t.Fatalf("cell %d seed %d != ShardSeed(7,%d)", i, cell.Seed, i)
		}
	}
	// Scenario columns come first, in registry order; plans follow.
	for i, name := range attack.Names() {
		if cc.Attacks[i].Name != name || cc.Attacks[i].Kind != KindScenario {
			t.Fatalf("attack column %d = %+v, want scenario %s", i, cc.Attacks[i], name)
		}
	}
	for i, p := range BuiltinPlans() {
		col := cc.Attacks[len(attack.Names())+i]
		if col.Name != p.Name || col.Kind != KindPlan {
			t.Fatalf("plan column %d = %+v, want %s", i, col, p.Name)
		}
	}
}

func TestCampaignCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		spec CampaignSpec
		want string
	}{
		{"zero seeds", CampaignSpec{}, "runs nothing"},
		{"negative seeds", CampaignSpec{Seeds: -1}, "runs nothing"},
		{"no attacks", CampaignSpec{Seeds: 1, Scenarios: []string{}, Plans: []AttackPlan{}}, "no attacks"},
		{"unknown scenario", CampaignSpec{Seeds: 1, Scenarios: []string{"ghost"}}, "unknown scenario"},
		{"dup scenario", CampaignSpec{Seeds: 1, Scenarios: []string{"secure-probe", "secure-probe"}}, "listed twice"},
		{"bad plan", CampaignSpec{Seeds: 1, Plans: []AttackPlan{{Name: "p", Stages: []PlanStage{{Scenario: "ghost"}}}}}, "unknown scenario"},
		{"plan shadows scenario", CampaignSpec{Seeds: 1, Scenarios: []string{"secure-probe"},
			Plans: []AttackPlan{{Name: "secure-probe", Stages: []PlanStage{{Scenario: "log-wipe"}}}}}, "listed twice"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Compile(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRunCellsOrderAndSeeds checks the runnable form: results come back
// in matrix order with harness-derived seeds regardless of parallelism.
func TestRunCellsOrderAndSeeds(t *testing.T) {
	cc, err := (CampaignSpec{RootSeed: 9, Seeds: 2, Scenarios: []string{"secure-probe", "bus-flood"}, Plans: []AttackPlan{}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, err := RunCells(harness.NewPool(workers), cc, func(c Cell) ([2]int64, error) {
			return [2]int64{int64(c.Index), c.Seed}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cc.NumCells() {
			t.Fatalf("results = %d, want %d", len(got), cc.NumCells())
		}
		for i, r := range got {
			if r[0] != int64(i) || r[1] != harness.ShardSeed(9, i) {
				t.Fatalf("workers=%d: result %d = %v", workers, i, r)
			}
		}
	}
}
