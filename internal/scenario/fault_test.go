package scenario

import (
	"math"
	"testing"

	"cres/internal/faultmodel"
)

func TestFaultSpecZeroCompilesToDisabledPlan(t *testing.T) {
	p, err := FaultSpec{}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() {
		t.Fatalf("zero spec compiled to an enabled plan: %+v", p)
	}
}

// TestFaultSpecDefaults pins that compiling fills nothing in: the plan
// carries the spec's rates, crash fraction, outage count and seed as
// given, and every fault's timing is faultmodel's own.
func TestFaultSpecDefaults(t *testing.T) {
	p, err := FaultSpec{
		Drop: 0.1, Duplicate: 0.1, Reorder: 0.2,
		CrashFraction:   0.3,
		VerifierOutages: 2,
		Seed:            9,
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := faultmodel.Plan{
		Seed:          9,
		Link:          faultmodel.LinkRates{Drop: 0.1, Duplicate: 0.1, Reorder: 0.2},
		CrashFraction: 0.3,
		Outages:       2,
	}
	if *p != want || !p.Enabled() {
		t.Fatalf("plan = %+v, want %+v", *p, want)
	}
}

func TestFaultSpecValidation(t *testing.T) {
	bad := []FaultSpec{
		{Drop: math.NaN()},
		{Duplicate: math.Inf(1)},
		{Reorder: -0.1},
		{Drop: 1.0},
		{Duplicate: 1.5},
		{CrashFraction: 2},
		{CrashFraction: math.NaN()},
		{VerifierOutages: -1},
		{VerifierOutages: MaxVerifierOutages + 1},
	}
	for i, s := range bad {
		if _, err := s.Compile(); err == nil {
			t.Errorf("spec %d (%+v) compiled without error", i, s)
		}
	}
}
