package cres

import (
	"time"

	"cres/internal/attack"
	"cres/internal/harness"
	"cres/internal/report"
	"cres/internal/scenario"
)

// This file implements the E3b ablation called out in DESIGN.md:
// signature-only vs anomaly-only vs combined detection, quantifying why
// Table I's DETECT function lists both method families and the paper's
// architecture runs them together.

// E3bRow records one scenario's detection under each mode.
type E3bRow struct {
	Scenario  string
	Signature bool
	Anomaly   bool
	Combined  bool
}

// E3bResult is the detection-mode ablation.
type E3bResult struct {
	Rows  []E3bRow
	Table *report.Table
	// Rates maps mode name to detection rate over the suite.
	Rates map[string]float64
}

// RunE3bDetectionAblation runs the registered attack suite against one
// compiled device spec per detection mode. Each (mode, scenario) cell
// is an independent shard.
func RunE3bDetectionAblation(seed int64, pool *harness.Pool) (*E3bResult, error) {
	devices := []scenario.DeviceSpec{
		{Name: "dut", Detection: scenario.DetectSignatureOnly},
		{Name: "dut", Detection: scenario.DetectAnomalyOnly},
		{Name: "dut", Detection: scenario.DetectCombined},
	}
	suite := attack.All()

	hits, err := harness.Map(pool, len(devices)*len(suite), seed, func(sh harness.Shard) (bool, error) {
		spec := devices[sh.Index/len(suite)]
		sc := suite[sh.Index%len(suite)]
		spec.Seed = sh.Seed
		tb, err := NewAttackTestbed(spec)
		if err != nil {
			return false, err
		}
		if err := tb.Warm(15 * time.Millisecond); err != nil {
			return false, err
		}
		if err := sc.Launch(tb.tgt); err != nil {
			return false, err
		}
		tb.dev.RunFor(30 * time.Millisecond)
		// Under ablation, ANY alert attributable to the attack counts as
		// detection — the expected signature may be disabled while
		// another family still catches the activity.
		return tb.dev.SSM.AlertsHandled() > 0, nil
	})
	if err != nil {
		return nil, err
	}
	detected := func(mode, scenario int) bool { return hits[mode*len(suite)+scenario] }

	res := &E3bResult{Rates: make(map[string]float64)}
	counts := make([]int, len(devices))
	for i, sc := range suite {
		row := E3bRow{
			Scenario:  sc.Name(),
			Signature: detected(0, i),
			Anomaly:   detected(1, i),
			Combined:  detected(2, i),
		}
		res.Rows = append(res.Rows, row)
		for m := range devices {
			if detected(m, i) {
				counts[m]++
			}
		}
	}
	n := float64(len(suite))
	for m, spec := range devices {
		res.Rates[spec.Detection] = float64(counts[m]) / n
	}

	t := report.NewTable("E3b — Detection-mode ablation (any attack-window alert counts)",
		"Scenario", "Signature-only", "Anomaly-only", "Combined")
	for _, r := range res.Rows {
		t.AddRow(r.Scenario, yn(r.Signature), yn(r.Anomaly), yn(r.Combined))
	}
	t.AddRow("RATE",
		report.Pct(res.Rates["signature-only"]),
		report.Pct(res.Rates["anomaly-only"]),
		report.Pct(res.Rates["combined"]))
	res.Table = t
	return res, nil
}
