package cres

import (
	"strings"
	"testing"
	"time"

	"cres/internal/attack"
	"cres/internal/core"
	"cres/internal/evidence"
	"cres/internal/monitor"
	"cres/internal/scenario"
)

// Integration tests covering multi-phase attack/recovery cycles and the
// detection-mode device configurations.

func TestRecompromiseAfterRecoveryIsCaughtAgain(t *testing.T) {
	d := newCRESDevice(t)
	runHealthy(t, d, 15*time.Millisecond)

	// First compromise and containment.
	Launch(d, attack.CodeInjection{})
	d.RunFor(5 * time.Millisecond)
	if !d.Responder.IsIsolated("app-core") {
		t.Fatal("first compromise not contained")
	}
	first := d.SSM.ResponsesFired()

	// Recovery.
	if err := d.Recover("app-core", "reflashed"); err != nil {
		t.Fatal(err)
	}
	runHealthy(t, d, 10*time.Millisecond)
	if d.SSM.State() != core.StateHealthy {
		t.Fatalf("state after recovery = %v", d.SSM.State())
	}

	// Second compromise: the re-armed play must fire again.
	Launch(d, attack.ControlFlowHijack{})
	d.RunFor(5 * time.Millisecond)
	if !d.Responder.IsIsolated("app-core") {
		t.Fatal("re-compromise not contained")
	}
	if d.SSM.ResponsesFired() <= first {
		t.Fatal("playbook did not fire on re-compromise")
	}
}

func TestSimultaneousAttacksAllDetected(t *testing.T) {
	tb, err := NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Warm(15 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Launch three attacks of different classes at once.
	for _, sc := range []attack.Scenario{
		attack.SecureProbe{},
		attack.VoltageGlitch{},
		attack.M2MMITM{Messages: 5},
	} {
		if err := sc.Launch(tb.tgt); err != nil {
			t.Fatal(err)
		}
	}
	tb.dev.RunFor(20 * time.Millisecond)

	for _, sig := range []string{
		monitor.SigBusSecurityFault,
		monitor.SigEnvOutOfBand,
		monitor.SigNetAuthFailure,
	} {
		if _, ok := tb.dev.SSM.FirstDetection(sig); !ok {
			t.Errorf("signature %s missed under concurrent attack", sig)
		}
	}
	// Evidence remains a single consistent chain.
	if _, err := tb.dev.SSM.Log().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureOnlyDeviceMissesCovertChannel(t *testing.T) {
	tb, err := NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Detection: scenario.DetectSignatureOnly, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Warm(15 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if tb.dev.TimingMon != nil {
		t.Fatal("signature-only device has a timing monitor")
	}
	if err := (attack.CacheCovertChannel{Trustlet: "keymaster"}).Launch(tb.tgt); err != nil {
		t.Fatal(err)
	}
	tb.dev.RunFor(20 * time.Millisecond)
	if _, ok := tb.dev.SSM.FirstDetection(monitor.SigTimingCrossWorld); ok {
		t.Fatal("signature-only device detected the statistical channel")
	}
}

func TestAnomalyOnlyDeviceMissesCFI(t *testing.T) {
	tb, err := NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Detection: scenario.DetectAnomalyOnly, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if tb.dev.CFIMon != nil {
		t.Fatal("anomaly-only device has a CFI monitor")
	}
	if err := tb.Warm(15 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := (attack.ControlFlowHijack{}).Launch(tb.tgt); err != nil {
		t.Fatal(err)
	}
	tb.dev.RunFor(20 * time.Millisecond)
	if _, ok := tb.dev.SSM.FirstDetection(monitor.SigCFIInvalidEdge); ok {
		t.Fatal("anomaly-only device raised a CFI signature")
	}
}

func TestAnomalyOnlyRecoverWorksWithoutCFIMonitor(t *testing.T) {
	// Recover() must not crash when CFIMon is nil (anomaly-only mode).
	tb, err := NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Detection: scenario.DetectAnomalyOnly, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Warm(15 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := (attack.BusFlood{}).Launch(tb.tgt); err != nil {
		t.Fatal(err)
	}
	tb.dev.RunFor(20 * time.Millisecond)
	if !tb.dev.Responder.IsIsolated("app-core") {
		t.Fatal("flood not contained by anomaly-only device")
	}
	if err := tb.dev.Recover("app-core", "flood source removed"); err != nil {
		t.Fatal(err)
	}
}

// TestTestbedWarmsAnyDeviceName pins that the testbed's operator
// trusts and addresses the device by its own name: a device not named
// "dut" still receives the warm-up telemetry.
func TestTestbedWarmsAnyDeviceName(t *testing.T) {
	tb, err := NewAttackTestbed(scenario.DeviceSpec{Name: "field-7", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Warm(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := tb.Device().Endpoint.Received(); got == 0 {
		t.Fatal("field-7 received none of the warm-up telemetry")
	}
}

func TestEvidenceChainSpansWholeLifecycle(t *testing.T) {
	d := newCRESDevice(t)
	runHealthy(t, d, 10*time.Millisecond)
	Launch(d, attack.FirmwareTamper{})
	d.RunFor(5 * time.Millisecond)
	d.Recover("app-core", "cleaned")
	runHealthy(t, d, 5*time.Millisecond)

	// One chain, verifiable end to end, containing every record kind.
	if seq, err := d.SSM.Log().Verify(); err != nil {
		t.Fatalf("chain broken at %d: %v", seq, err)
	}
	kinds := make(map[evidence.Kind]int)
	for _, r := range d.SSM.Log().Records() {
		kinds[r.Kind]++
	}
	for _, k := range []evidence.Kind{
		evidence.KindObservation, evidence.KindAlert,
		evidence.KindResponse, evidence.KindRecovery, evidence.KindLifecycle,
	} {
		if kinds[k] == 0 {
			t.Errorf("lifecycle produced no %v records", k)
		}
	}
}

func TestUpdaterIntegratesWithWatchpoints(t *testing.T) {
	// A legitimate update through the Updater writes flash out-of-band
	// (flash controller, not the bus), so the watchpoint stays quiet;
	// the staged image then survives reboot.
	d := newCRESDevice(t)
	runHealthy(t, d, 10*time.Millisecond)
	alertsBefore := d.SSM.AlertsHandled()

	next := bootBuild(d, "firmware", 2)
	if err := d.Updater.Stage(next, d.BootReport().BootedSlot); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Updater.Activate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image.Version != 2 {
		t.Fatalf("booted v%d", rep.Image.Version)
	}
	if d.SSM.AlertsHandled() != alertsBefore {
		t.Fatal("legitimate update raised alerts")
	}
}

func TestForensicTimelineIsChronological(t *testing.T) {
	d := newCRESDevice(t)
	runHealthy(t, d, 10*time.Millisecond)
	Launch(d, attack.SecureProbe{})
	d.RunFor(10 * time.Millisecond)
	rep := d.ForensicReport(0, d.Now())
	for i := 1; i < len(rep.Timeline); i++ {
		if rep.Timeline[i].At < rep.Timeline[i-1].At {
			t.Fatal("timeline out of order")
		}
	}
	if !strings.Contains(rep.Render(), "alert") {
		t.Fatal("render lacks alerts")
	}
}
