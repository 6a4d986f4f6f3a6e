package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cres/internal/cryptoutil"
	"cres/internal/evidence"
	"cres/internal/monitor"
	"cres/internal/sim"
)

func newSSM(t *testing.T, cfg Config) (*sim.Engine, *SSM) {
	t.Helper()
	e := sim.New(3)
	signer, err := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{0x55}, 32))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(e, cfg, signer, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, s
}

func alert(at time.Duration, sig, res string, sev monitor.Severity) monitor.Alert {
	return monitor.Alert{
		At: sim.VirtualTime(at), Monitor: "test-monitor", Resource: res,
		Severity: sev, Signature: sig, Detail: "test alert",
	}
}

func TestNewValidation(t *testing.T) {
	e := sim.New(1)
	if _, err := New(e, Config{}, nil, nil); err == nil {
		t.Fatal("nil signer accepted")
	}
}

func TestAlertRecordedAsEvidence(t *testing.T) {
	_, s := newSSM(t, Config{})
	s.HandleAlert(alert(time.Millisecond, "cfi.invalid-edge", "app-core", monitor.Critical))
	recs := s.Log().Records()
	var found bool
	for _, r := range recs {
		if r.Kind == evidence.KindAlert && strings.Contains(r.Detail, "cfi.invalid-edge") {
			found = true
		}
	}
	if !found {
		t.Fatal("alert not in evidence log")
	}
	if s.AlertsHandled() != 1 {
		t.Fatal("counter")
	}
}

func TestHealthStateTransitions(t *testing.T) {
	var transitions []string
	e := sim.New(3)
	signer, _ := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{0x55}, 32))
	s, err := New(e, Config{}, signer, func(from, to HealthState) {
		transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != StateHealthy {
		t.Fatal("initial state")
	}
	// One warning: suspicious.
	s.HandleAlert(alert(time.Millisecond, "bus.rate.anomaly", "dma0", monitor.Warning))
	if s.State() != StateSuspicious {
		t.Fatalf("state = %v", s.State())
	}
	// Critical: compromised.
	s.HandleAlert(alert(2*time.Millisecond, "bus.security-fault", "dma0", monitor.Critical))
	if s.State() != StateCompromised {
		t.Fatalf("state = %v", s.State())
	}
	if len(transitions) != 2 {
		t.Fatalf("transitions = %v", transitions)
	}
}

func TestWarningsAccumulateToCompromise(t *testing.T) {
	_, s := newSSM(t, Config{})
	for i := 0; i < compromiseThreshold; i++ {
		s.HandleAlert(alert(time.Duration(i)*time.Millisecond, "net.rate.anomaly", "peer-1", monitor.Warning))
	}
	if s.State() != StateCompromised {
		t.Fatalf("state = %v after accumulated warnings", s.State())
	}
}

func TestSuspicionDecays(t *testing.T) {
	e, s := newSSM(t, Config{ObservationPeriod: time.Millisecond})
	s.HandleAlert(alert(0, "bus.rate.anomaly", "dma0", monitor.Warning))
	if s.State() != StateSuspicious {
		t.Fatal("not suspicious")
	}
	// 0.9^44 < 0.01: a Warning's score of 1 decays away in 44 ticks.
	e.RunFor(50 * time.Millisecond)
	if s.State() != StateHealthy {
		t.Fatalf("state = %v, suspicion did not decay", s.State())
	}
	if s.Score("dma0") != 0 {
		t.Fatalf("score = %f", s.Score("dma0"))
	}
}

func TestPlayFiresOncePerResource(t *testing.T) {
	_, s := newSSM(t, Config{})
	fired := 0
	err := s.AddPlay(Play{
		Name:            "isolate-on-cfi",
		SignaturePrefix: "cfi.",
		MinSeverity:     monitor.Critical,
		Respond: func(a monitor.Alert) (string, error) {
			fired++
			return "isolated " + a.Resource, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.HandleAlert(alert(time.Duration(i)*time.Millisecond, "cfi.invalid-edge", "app-core", monitor.Critical))
	}
	if fired != 1 {
		t.Fatalf("play fired %d times, want 1", fired)
	}
	// Different resource: fires again.
	s.HandleAlert(alert(6*time.Millisecond, "cfi.invalid-edge", "other-core", monitor.Critical))
	if fired != 2 {
		t.Fatalf("play fired %d times, want 2", fired)
	}
	if s.ResponsesFired() != 2 {
		t.Fatal("counter")
	}
	// After reset, same resource fires again.
	s.ResetPlay("isolate-on-cfi", "app-core")
	s.HandleAlert(alert(7*time.Millisecond, "cfi.unknown-block", "app-core", monitor.Critical))
	if fired != 3 {
		t.Fatalf("play fired %d times after reset, want 3", fired)
	}
}

func TestPlaySeverityGate(t *testing.T) {
	_, s := newSSM(t, Config{})
	fired := 0
	s.AddPlay(Play{
		Name: "p", SignaturePrefix: "bus.", MinSeverity: monitor.Critical,
		Respond: func(monitor.Alert) (string, error) { fired++; return "", nil },
	})
	s.HandleAlert(alert(time.Millisecond, "bus.rate.anomaly", "x", monitor.Warning))
	if fired != 0 {
		t.Fatal("warning fired critical-only play")
	}
	s.HandleAlert(alert(2*time.Millisecond, "bus.security-fault", "x", monitor.Critical))
	if fired != 1 {
		t.Fatal("critical did not fire play")
	}
}

func TestPlayFailureRecorded(t *testing.T) {
	_, s := newSSM(t, Config{})
	s.AddPlay(Play{
		Name: "failing", SignaturePrefix: "cfi.",
		Respond: func(monitor.Alert) (string, error) { return "", errors.New("gate jammed") },
	})
	s.HandleAlert(alert(time.Millisecond, "cfi.invalid-edge", "app-core", monitor.Critical))
	var foundFailure bool
	for _, r := range s.Log().Records() {
		if r.Kind == evidence.KindResponse && strings.Contains(r.Detail, "FAILED") {
			foundFailure = true
		}
	}
	if !foundFailure {
		t.Fatal("response failure not in evidence")
	}
	if s.ResponsesFired() != 0 {
		t.Fatal("failed response counted as fired")
	}
}

func TestCompromisedToDegradedAfterResponse(t *testing.T) {
	_, s := newSSM(t, Config{})
	s.AddPlay(Play{
		Name: "p", SignaturePrefix: "cfi.",
		Respond: func(monitor.Alert) (string, error) { return "done", nil },
	})
	s.HandleAlert(alert(time.Millisecond, "cfi.invalid-edge", "app-core", monitor.Critical))
	if s.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded after response", s.State())
	}
}

func TestAddPlayValidation(t *testing.T) {
	_, s := newSSM(t, Config{})
	bad := []Play{
		{SignaturePrefix: "x", Respond: func(monitor.Alert) (string, error) { return "", nil }},
		{Name: "n", Respond: func(monitor.Alert) (string, error) { return "", nil }},
		{Name: "n", SignaturePrefix: "x"},
	}
	for i, p := range bad {
		if err := s.AddPlay(p); !errors.Is(err, ErrPlayInvalid) {
			t.Errorf("play %d accepted", i)
		}
	}
}

type fakeMonitor struct{ name string }

func (f *fakeMonitor) Name() string { return f.name }
func (f *fakeMonitor) Snapshot() map[string]float64 {
	return map[string]float64{"gauge": 42}
}

func TestPeriodicObservations(t *testing.T) {
	e, s := newSSM(t, Config{ObservationPeriod: time.Millisecond})
	s.AttachMonitor(&fakeMonitor{name: "fake"})
	e.RunFor(5500 * time.Microsecond)
	n := 0
	for _, r := range s.Log().Records() {
		if r.Kind == evidence.KindObservation && r.Source == "fake" {
			n++
			if !strings.Contains(r.Detail, "gauge=42.00") {
				t.Fatalf("observation detail = %q", r.Detail)
			}
		}
	}
	if n != 5 {
		t.Fatalf("observations = %d, want 5", n)
	}
}

func TestPeriodicAnchorsVerify(t *testing.T) {
	e, s := newSSM(t, Config{ObservationPeriod: time.Millisecond, AnchorPeriod: 2 * time.Millisecond})
	s.AttachMonitor(&fakeMonitor{name: "fake"})
	e.RunFor(10 * time.Millisecond)
	anchors := s.Anchors()
	if len(anchors) < 4 {
		t.Fatalf("anchors = %d", len(anchors))
	}
	for i, a := range anchors {
		if err := s.Log().VerifyAnchor(a, s.AnchorKey()); err != nil {
			t.Fatalf("anchor %d: %v", i, err)
		}
	}
}

func TestDetectionLatencyBookkeeping(t *testing.T) {
	_, s := newSSM(t, Config{})
	s.HandleAlert(alert(3*time.Millisecond, "cfi.invalid-edge", "app-core", monitor.Critical))
	s.HandleAlert(alert(5*time.Millisecond, "cfi.invalid-edge", "app-core", monitor.Critical))
	d, ok := s.FirstDetection("cfi.invalid-edge")
	if !ok || d.At != sim.VirtualTime(3*time.Millisecond) {
		t.Fatalf("first detection = %+v, %v", d, ok)
	}
	if len(s.Detections()) != 1 {
		t.Fatal("detections")
	}
}

func TestRecoveryLifecycle(t *testing.T) {
	_, s := newSSM(t, Config{})
	s.HandleAlert(alert(time.Millisecond, "bus.security-fault", "dma0", monitor.Critical))
	if s.State() != StateCompromised {
		t.Fatal("setup")
	}
	s.RecordRecovery("restoring firmware from slot A")
	if s.State() != StateRecovering {
		t.Fatalf("state = %v", s.State())
	}
	s.MarkRecovered("firmware v4 active")
	if s.State() != StateHealthy {
		t.Fatalf("state = %v", s.State())
	}
	if s.Score("dma0") != 0 {
		t.Fatal("scores not cleared")
	}
}

func TestReconstructBreach(t *testing.T) {
	e, s := newSSM(t, Config{ObservationPeriod: time.Millisecond, AnchorPeriod: 5 * time.Millisecond})
	s.AttachMonitor(&fakeMonitor{name: "fake"})
	s.AddPlay(Play{
		Name: "isolate", SignaturePrefix: "cfi.",
		Respond: func(a monitor.Alert) (string, error) { return "isolated " + a.Resource, nil },
	})
	e.RunFor(5 * time.Millisecond)
	s.HandleAlert(alert(5*time.Millisecond+100*time.Microsecond, "cfi.invalid-edge", "app-core", monitor.Critical))
	e.RunFor(5 * time.Millisecond)

	rep := Reconstruct(s.Log(), 0, sim.VirtualTime(10*time.Millisecond),
		sim.VirtualTime(2*time.Millisecond), s.Anchors(), s.AnchorKey())
	if !rep.ChainIntact {
		t.Fatal("chain broken")
	}
	if rep.Alerts != 1 || rep.Responses != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Observations < 8 {
		t.Fatalf("observations = %d", rep.Observations)
	}
	if rep.Continuity < 0.9 {
		t.Fatalf("continuity = %f", rep.Continuity)
	}
	if rep.AnchorsValid != rep.AnchorsTotal || rep.AnchorsTotal == 0 {
		t.Fatalf("anchors = %d/%d", rep.AnchorsValid, rep.AnchorsTotal)
	}
	out := rep.Render()
	if !strings.Contains(out, "isolated app-core") {
		t.Fatalf("render = %q", out)
	}
}

func TestReconstructDetectsTamperedLog(t *testing.T) {
	e, s := newSSM(t, Config{ObservationPeriod: time.Millisecond})
	s.AttachMonitor(&fakeMonitor{name: "fake"})
	e.RunFor(5 * time.Millisecond)
	anchors := s.Anchors()
	// Attacker rewrites a record in place.
	s.Log().TamperRewrite(2, "nothing happened here")
	rep := Reconstruct(s.Log(), 0, sim.VirtualTime(5*time.Millisecond),
		sim.VirtualTime(2*time.Millisecond), anchors, s.AnchorKey())
	if rep.ChainIntact {
		t.Fatal("tamper not detected")
	}
	if rep.FirstCorrupt != 2 {
		t.Fatalf("first corrupt = %d", rep.FirstCorrupt)
	}
	if !strings.Contains(rep.Render(), "first corrupt record 2") {
		t.Fatal("render lacks corruption info")
	}
}

func TestStateString(t *testing.T) {
	states := map[HealthState]string{
		StateHealthy:     "healthy",
		StateSuspicious:  "suspicious",
		StateCompromised: "compromised",
		StateDegraded:    "degraded",
		StateRecovering:  "recovering",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}

func TestStop(t *testing.T) {
	e, s := newSSM(t, Config{ObservationPeriod: time.Millisecond})
	s.AttachMonitor(&fakeMonitor{name: "fake"})
	e.RunFor(2 * time.Millisecond)
	before := s.Log().Len()
	s.Stop()
	e.RunFor(10 * time.Millisecond)
	if s.Log().Len() != before {
		t.Fatal("SSM kept observing after Stop")
	}
}
