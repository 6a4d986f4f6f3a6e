package attack

import (
	"strings"
	"testing"
	"time"

	"cres/internal/hw"
	"cres/internal/sim"
)

// TestRegistryMatchesSuite: the registry holds the 11 built-in
// scenarios, and its name lookups agree with it.
func TestRegistryMatchesSuite(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registry = %d scenarios, want the 11 built-ins", len(all))
	}
	for i, name := range Names() {
		if all[i].Name() != name {
			t.Errorf("All()[%d] = %s, Names()[%d] = %s", i, all[i].Name(), i, name)
		}
	}
	for _, name := range Names() {
		sc, ok := Get(name)
		if !ok || sc.Name() != name {
			t.Errorf("Get(%q) = %v, %v", name, sc, ok)
		}
	}
	if _, ok := Get("no-such-scenario"); ok {
		t.Error("Get accepted an unknown name")
	}
	sorted := SortedNames()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatalf("SortedNames out of order: %v", sorted)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(SecureProbe{})
}

func TestStagedSignatureUnion(t *testing.T) {
	s := Staged{PlanName: "p", Stages: []Stage{
		{Scenario: SecureProbe{}},                            // bus.security-fault
		{Scenario: LogWipe{}, Delay: time.Millisecond},       // bus.security-fault (dup)
		{Scenario: CodeInjection{}, Delay: time.Millisecond}, // cfi.unknown-block
	}}
	sigs := s.ExpectedSignatures()
	want := []string{"bus.security-fault", "cfi.unknown-block"}
	if len(sigs) != len(want) {
		t.Fatalf("signatures = %v, want %v", sigs, want)
	}
	for i := range want {
		if sigs[i] != want[i] {
			t.Fatalf("signatures = %v, want %v", sigs, want)
		}
	}
}

func TestStagedHorizon(t *testing.T) {
	s := Staged{PlanName: "p", Stages: []Stage{
		{Scenario: SecureProbe{}, Delay: 2 * time.Millisecond},
		{Scenario: BusFlood{}, Delay: 5 * time.Millisecond, Repeat: 3, Gap: 2 * time.Millisecond},
	}}
	if got, want := s.Horizon(), 9*time.Millisecond; got != want {
		t.Fatalf("horizon = %v, want %v", got, want)
	}
	// Default gap applies when Repeat > 1 and Gap is unset.
	s = Staged{PlanName: "p", Stages: []Stage{{Scenario: SecureProbe{}, Repeat: 4}}}
	if got, want := s.Horizon(), 3*DefaultStageGap; got != want {
		t.Fatalf("horizon = %v, want %v", got, want)
	}
}

// TestStagedLaunchRunsEveryStage schedules a three-stage plan and checks
// each stage's expected signature fires, in stage order.
func TestStagedLaunchRunsEveryStage(t *testing.T) {
	r := newRig(t)
	plan := Staged{
		PlanName: "probe-then-inject",
		Stages: []Stage{
			{Scenario: SecureProbe{}},
			{Scenario: CodeInjection{}, Delay: 5 * time.Millisecond},
			{Scenario: LogWipe{}, Delay: 10 * time.Millisecond, Repeat: 2},
		},
	}
	if err := plan.Launch(r.target); err != nil {
		t.Fatal(err)
	}
	r.settle()
	for _, sig := range plan.ExpectedSignatures() {
		if r.alerts[sig] == 0 {
			t.Errorf("signature %s not raised (counts: %v)", sig, r.alerts)
		}
	}
}

func TestStagedEmptyAndIncomplete(t *testing.T) {
	if err := (Staged{PlanName: "empty"}).Launch(&Target{Engine: sim.New(1)}); err == nil {
		t.Fatal("empty plan accepted")
	}
	s := Staged{PlanName: "p", Stages: []Stage{{Scenario: SecureProbe{}}}}
	if err := s.Launch(&Target{}); err == nil {
		t.Fatal("target without engine accepted")
	}
	// A zero-delay stage on an incomplete target fails synchronously,
	// with the plan and stage named.
	err := s.Launch(&Target{Engine: sim.New(1)})
	if err == nil || !strings.Contains(err.Error(), "secure-probe") {
		t.Fatalf("synchronous stage failure not attributed: %v", err)
	}
}

// TestStagedIsBoundedAndWithdraws runs a staged plan to completion and
// checks the platform quiesces: no tamper or MITM hook outlives it.
func TestStagedIsBoundedAndWithdraws(t *testing.T) {
	r := newRig(t)
	plan := Staged{
		PlanName: "tamper-then-mitm",
		Stages: []Stage{
			{Scenario: BusAttributeTamper{}},
			{Scenario: M2MMITM{Messages: 3}, Delay: 3 * time.Millisecond},
		},
	}
	if err := plan.Launch(r.target); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(40 * time.Millisecond)
	// Legitimate traffic flows uncorrupted again.
	before := r.target.Net.Stats().Delivered
	r.target.Peer.Send("device", "telemetry", []byte("nominal"))
	r.engine.RunFor(2 * time.Millisecond)
	if r.target.Net.Stats().Delivered != before+1 {
		t.Fatal("MITM hook survived the plan")
	}
	// A normal-world read of normal memory passes the bus untampered.
	var buf [8]byte
	if err := r.target.SoC.AppCore.ReadInto(hw.AddrSRAM, buf[:]); err != nil {
		t.Fatalf("bus tamper survived the plan: %v", err)
	}
}
