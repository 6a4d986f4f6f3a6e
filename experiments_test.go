package cres

import (
	"strings"
	"testing"
	"time"
)

// These tests run the full experiment suite and assert the paper-shaped
// outcomes: who wins, by roughly what factor, and where the qualitative
// crossovers fall.

func TestE1TableIReproducesGap(t *testing.T) {
	res := RunE1TableI()
	if res.Requirements < 15 {
		t.Fatalf("requirements = %d", res.Requirements)
	}
	if len(res.Gaps) != 2 {
		t.Fatalf("gaps = %v", res.Gaps)
	}
	out := res.Table.Render()
	if !strings.Contains(out, "research gap") {
		t.Fatal("rendered table lacks gap marker")
	}
	if !strings.Contains(res.CoverageTable.Render(), "RESPOND") {
		t.Fatal("coverage table incomplete")
	}
}

func TestE2Figure1(t *testing.T) {
	res := RunE2Figure1()
	if len(res.Frameworks) != 3 {
		t.Fatal("frameworks")
	}
	if !strings.Contains(res.Rendered, "Identify") || !strings.Contains(res.Rendered, "NCSC") {
		t.Fatalf("rendered = %q", res.Rendered)
	}
	if res.Association.Len() != 5 {
		t.Fatal("association rows")
	}
}

func TestE3CRESDetectsEverythingBaselineNothing(t *testing.T) {
	res, err := RunE3DetectionMatrix(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CRESRate != 1.0 {
		t.Fatalf("CRES detection rate = %v; rows:\n%s", res.CRESRate, res.Table.Render())
	}
	if res.BaselineRate != 0.0 {
		t.Fatalf("baseline detection rate = %v", res.BaselineRate)
	}
	for _, r := range res.Rows {
		if !r.CRESDetected {
			t.Errorf("scenario %s undetected", r.Scenario)
		}
		if r.CRESDetected && r.DetectionLatency > 25*time.Millisecond {
			t.Errorf("scenario %s latency %v too high", r.Scenario, r.DetectionLatency)
		}
	}
}

func TestE4EvidenceContinuity(t *testing.T) {
	res, err := RunE4EvidenceContinuity(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatal("rows")
	}
	cresRow, baseRow := res.Rows[0], res.Rows[1]
	if cresRow.Continuity < 0.9 {
		t.Fatalf("cres continuity = %f", cresRow.Continuity)
	}
	if !cresRow.WipeDetected {
		t.Fatal("cres wipe not detected")
	}
	if baseRow.RecordsInWindow != 0 || baseRow.WipeDetected {
		t.Fatalf("baseline row = %+v", baseRow)
	}
}

func TestE5CriticalServiceSurvivesOnCRESOnly(t *testing.T) {
	res, err := RunE5GracefulDegradation(7, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalAvailability["cres"] < 0.99 {
		t.Fatalf("cres critical availability = %f", res.CriticalAvailability["cres"])
	}
	// Baseline spends ~500ms rebooting inside a 300ms window after a
	// 20ms notice delay: availability must be far below CRES.
	if res.CriticalAvailability["baseline"] > 0.5 {
		t.Fatalf("baseline critical availability = %f", res.CriticalAvailability["baseline"])
	}
	if res.TotalAvailability["cres"] <= res.TotalAvailability["baseline"] {
		t.Fatal("cres total availability should exceed baseline")
	}
}

func TestE6RecoveryOrdering(t *testing.T) {
	res, err := RunE6Recovery(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E6Row{}
	for _, r := range res.Rows {
		byName[r.Strategy] = r
	}
	iso := byName["cres-isolate-restore"]
	rf := byName["cres-rollforward"]
	rb := byName["baseline-reboot"]
	if iso.CriticalOutage != 0 {
		t.Fatalf("isolate-restore outage = %v", iso.CriticalOutage)
	}
	if !iso.RemovesCompromise || !rf.RemovesCompromise {
		t.Fatal("cres strategies must remove compromise")
	}
	if rb.RemovesCompromise {
		t.Fatal("baseline reboot cannot remove compromise")
	}
	if rb.TimeToHealthy < rf.TimeToHealthy {
		t.Fatalf("baseline (%v) should be slower than roll-forward (%v)", rb.TimeToHealthy, rf.TimeToHealthy)
	}
	if iso.TimeToHealthy >= rb.TimeToHealthy {
		t.Fatal("targeted recovery should beat reboot")
	}
}

func TestE7OnlyHardenedChainSurvives(t *testing.T) {
	res, err := RunE7Rollback(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatal("rows")
	}
	hardened := res.Rows[0]
	if !hardened.Refused || hardened.AttackSucceed {
		t.Fatalf("hardened row = %+v", hardened)
	}
	// Anti-rollback is the deciding control: any config retaining it
	// (rows 0 and 2) refuses the genuine-but-old image; any config
	// without it (rows 1 and 3) boots the vulnerable v2.
	sigOnlyWeak := res.Rows[2]
	if !sigOnlyWeak.Refused || sigOnlyWeak.AttackSucceed {
		t.Fatalf("signature-weak-but-rollback-protected row = %+v", sigOnlyWeak)
	}
	for _, i := range []int{1, 3} {
		r := res.Rows[i]
		if !r.AttackSucceed {
			t.Errorf("config %q resisted downgrade: %+v", r.Config, r)
		}
		if r.BootedVersion != 2 {
			t.Errorf("config %q booted v%d", r.Config, r.BootedVersion)
		}
	}
}

func TestE8FleetCatchesAllTampered(t *testing.T) {
	res, err := RunE8FleetAttestation([]int{4, 64, 512}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		s := r.Summary
		if s.Devices != r.Devices {
			t.Errorf("n=%d summary covers %d devices", r.Devices, s.Devices)
		}
		if s.Caught != s.Tampered {
			t.Errorf("n=%d caught %d of %d tampered", r.Devices, s.Caught, s.Tampered)
		}
		if s.FalseAlarms != 0 {
			t.Errorf("n=%d false alarms %d", r.Devices, s.FalseAlarms)
		}
		if s.Completion <= 0 {
			t.Errorf("n=%d completion %v", r.Devices, s.Completion)
		}
		if len(s.Sample) == 0 || s.Sample[0].Reason != 1 /* caught */ {
			t.Errorf("n=%d anomaly sample %v", r.Devices, s.Sample)
		}
		// The histogram covers every device exactly once.
		hist := 0
		for _, n := range s.Hist {
			hist += n
		}
		if hist != s.Devices {
			t.Errorf("n=%d histogram counts %d of %d devices", r.Devices, hist, s.Devices)
		}
	}
	// Completion grows with fleet size in this streaming regime: more
	// devices mean more batches draining through the shard's verifier.
	if res.Rows[2].Summary.Completion < res.Rows[0].Summary.Completion {
		t.Fatal("completion should not shrink with fleet size")
	}
	if res.TotalDevices != 4+64+512 {
		t.Fatalf("total devices %d", res.TotalDevices)
	}
}

func TestE9OverheadOrdering(t *testing.T) {
	res, err := RunE9MonitorOverhead(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatal("rows")
	}
	// Monitoring costs something; the full configuration costs at least
	// as much as nothing at all. (Wall-clock noise makes strict
	// monotonicity flaky; assert the endpoints only.)
	if res.Rows[3].WallNsPerTx < res.Rows[0].WallNsPerTx*0.5 {
		t.Fatalf("full monitoring (%f) implausibly cheaper than none (%f)",
			res.Rows[3].WallNsPerTx, res.Rows[0].WallNsPerTx)
	}
	for _, r := range res.Rows {
		if r.Alerts != 0 {
			t.Errorf("healthy traffic raised %d alerts in %s", r.Alerts, r.Config)
		}
		// The monitored read path is allocation-free in every
		// configuration, the observer-less and counting ones included,
		// which internal/monitor's allocation tests do not run.
		if r.AllocsPerTx != 0 {
			t.Errorf("%s allocates %g per transaction, want 0", r.Config, r.AllocsPerTx)
		}
	}
}

func TestE10ChannelWorksAndIsDetectedUnpartitioned(t *testing.T) {
	res, err := RunE10CovertChannel(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var unpart, part []E10Row
	for _, r := range res.Rows {
		if r.Partitioned {
			part = append(part, r)
		} else {
			unpart = append(unpart, r)
		}
	}
	for _, r := range unpart {
		acc := float64(r.BitsCorrect) / float64(r.BitsSent)
		if acc < 0.95 {
			t.Errorf("period %dµs: accuracy %f too low for working channel", r.PeriodUS, acc)
		}
		if !r.Detected {
			t.Errorf("period %dµs: channel undetected", r.PeriodUS)
		}
	}
	// Faster channel -> higher bandwidth.
	if unpart[0].BandwidthBps <= unpart[len(unpart)-1].BandwidthBps {
		t.Fatal("bandwidth should fall with longer bit periods")
	}
	// Partitioning collapses accuracy to ~chance.
	for _, r := range part {
		acc := float64(r.BitsCorrect) / float64(r.BitsSent)
		if acc > 0.75 {
			t.Errorf("partitioned period %dµs: accuracy %f — channel not closed", r.PeriodUS, acc)
		}
	}
}

func TestE3bCombinedDominates(t *testing.T) {
	res, err := RunE3bDetectionAblation(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rates["combined"] != 1.0 {
		t.Fatalf("combined rate = %v\n%s", res.Rates["combined"], res.Table.Render())
	}
	if res.Rates["signature-only"] >= 1.0 {
		t.Fatalf("signature-only rate = %v — ablation shows no gap", res.Rates["signature-only"])
	}
	if res.Rates["anomaly-only"] >= 1.0 {
		t.Fatalf("anomaly-only rate = %v — ablation shows no gap", res.Rates["anomaly-only"])
	}
	// Combined must dominate both single modes on every scenario.
	for _, r := range res.Rows {
		if (r.Signature || r.Anomaly) && !r.Combined {
			t.Errorf("scenario %s detected by a single mode but not combined", r.Scenario)
		}
	}
}

func TestE11PACCatchesROP(t *testing.T) {
	res, err := RunE11PointerAuth(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, pac := res.Rows[0], res.Rows[1]
	if plain.GadgetRuns != plain.Corruptions {
		t.Fatalf("plain stack: %d gadget runs of %d corruptions", plain.GadgetRuns, plain.Corruptions)
	}
	if plain.Caught != 0 {
		t.Fatal("plain stack cannot detect anything")
	}
	// PAC: essentially every corruption trapped; forgery probability is
	// 2^-16 per trial, so over 500 trials expect ~0 successes.
	if pac.Caught < pac.Corruptions-1 {
		t.Fatalf("pac stack caught %d of %d", pac.Caught, pac.Corruptions)
	}
	if pac.GadgetRuns > 1 {
		t.Fatalf("pac stack allowed %d gadget runs", pac.GadgetRuns)
	}
}
