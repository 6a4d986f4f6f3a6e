package cres

import (
	"bytes"
	"fmt"
	"time"

	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/report"
	"cres/internal/scenario"
)

// This file implements experiment E15: hierarchical re-attestation.
// The flat fleet verifier (E8) trusts its single appraiser by fiat;
// E15 arranges the verifier shards as the leaves of a multi-tier
// hierarchy (fleet.Tree) in which every interior node verifies its
// children's signed summaries, re-merges their forwarded evidence,
// and re-signs — so a verifier forging its merged summary at any tier
// is detected and attributed by the tier above it, and the operator's
// root check closes the chain. The sweep injects exactly one lying
// mid-tier verifier per hierarchy shape and reports the detection
// latency (virtual time from the lie being signed to its parent
// catching it) across depth × fan-out, plus the signature-check and
// records-held costs the hierarchy pays for the guarantee.

// E15Shape is one hierarchy shape of the sweep.
type E15Shape struct {
	// Depth is the number of merge tiers above the leaves.
	Depth int
	// Fanout is the children per interior node.
	Fanout int
}

// E15Shapes returns the default depth × fan-out sweep; quick keeps the
// CI smoke to three shapes while still crossing a multi-tier hierarchy.
func E15Shapes(quick bool) []E15Shape {
	if quick {
		return []E15Shape{{1, 2}, {2, 2}, {2, 4}}
	}
	return []E15Shape{{1, 2}, {1, 4}, {2, 2}, {2, 4}, {3, 2}, {3, 4}}
}

// E15DevicesPerLeaf is each leaf verifier shard's device count — small
// enough that the deepest default shape stays a CI-friendly fleet,
// large enough that every leaf summary carries real anomalies for a
// liar to hide.
const E15DevicesPerLeaf = 256

// E15TreeSpec is the reference hierarchy workload for one shape: the
// E8 tamper rule (every 8th device) under a complete Depth × Fanout
// verifier tree.
func E15TreeSpec(shape E15Shape) scenario.TreeSpec {
	return scenario.TreeSpec{
		Fleet: scenario.FleetSpec{
			Name:         "e15",
			TamperEvery:  8,
			TamperOffset: 3,
		},
		Depth:          shape.Depth,
		Fanout:         shape.Fanout,
		DevicesPerLeaf: E15DevicesPerLeaf,
	}
}

// E15Config parameterizes the sweep.
type E15Config struct {
	// RootSeed seeds every run; all else derives from it.
	RootSeed int64
	// Quick selects the reduced shape sweep.
	Quick bool
}

// E15Row is one hierarchy shape's outcome: the honest run's summary
// and costs, then the forged run's detection.
type E15Row struct {
	// Depth, Fanout, Leaves and Devices fix the hierarchy shape.
	Depth, Fanout, Leaves, Devices int
	// Summary is the honest run's operator-verified fleet summary.
	Summary fleet.Summary
	// Completion is the honest run's virtual time through the operator
	// check; HierarchyOverhead is how much of it the tree added on top
	// of the flat shard completion.
	Completion, HierarchyOverhead time.Duration
	// SigChecks and MaxHeld are the honest run's verification count and
	// peak records held by any one checker.
	SigChecks, MaxHeld int
	// Liar is the injected forging verifier (an interior node).
	Liar fleet.NodeID
	// Detection is how the hierarchy caught it.
	Detection fleet.Detection
	// Attributed reports the detection named the actual liar.
	Attributed bool
	// Healed reports the forged run's final summary still equalled the
	// honest one — the excision repaired the hierarchy around the lie.
	Healed bool
}

// E15Result is the hierarchical re-attestation sweep.
type E15Result struct {
	Rows  []E15Row
	Table *report.Table
}

// Metrics reports, per shape, the honest run's signature checks and
// the forged run's detection lag, plus whether the liar went
// unattributed or the summary unhealed. They are information:
// TestHierarchyGolden pins every one of these cells exactly, and
// TestE15LyingVerifierDetected holds attribution and healing.
func (r *E15Result) Metrics() []harness.Metric {
	count := func(failed bool) float64 {
		if failed {
			return 1
		}
		return 0
	}
	var ms []harness.Metric
	for _, row := range r.Rows {
		prefix := fmt.Sprintf("E15/%dx%d/", row.Depth, row.Fanout)
		ms = append(ms,
			harness.Metric{Name: prefix + "sig_checks", Unit: "count", Value: float64(row.SigChecks), Better: harness.Lower},
			harness.Metric{Name: prefix + "detect_lag_ms", Unit: "ms", Value: float64(row.Detection.Lag.Microseconds()) / 1000, Better: harness.Lower},
			harness.Metric{Name: prefix + "unattributed", Unit: "count", Value: count(!row.Attributed), Better: harness.Lower},
			harness.Metric{Name: prefix + "unhealed", Unit: "count", Value: count(!row.Healed), Better: harness.Lower})
	}
	return ms
}

// RunE15Hierarchy sweeps hierarchy shapes: for each depth × fan-out it
// runs the tree honestly, then re-runs it with one mid-tier verifier
// forging its merged summary (hiding every compromise its subtree
// caught) and records the detection. The liar is the last node of
// tier 1 — the tier whose lie would erase the most evidence per node;
// for depth-1 shapes that node is the root, so those rows exercise the
// operator's own check.
func RunE15Hierarchy(cfg E15Config, pool *harness.Pool) (*E15Result, error) {
	res := &E15Result{}
	for _, shape := range E15Shapes(cfg.Quick) {
		ct, err := E15TreeSpec(shape).Compile()
		if err != nil {
			return nil, err
		}
		tr, err := ct.Tree(cfg.RootSeed)
		if err != nil {
			return nil, err
		}
		honest, err := tr.Run(pool)
		if err != nil {
			return nil, err
		}
		if n := len(honest.Detections); n != 0 {
			return nil, fmt.Errorf("cres: E15 %dx%d: honest hierarchy produced %d detections", shape.Depth, shape.Fanout, n)
		}
		liar := fleet.NodeID{Tier: 1, Index: tr.Tiers()[1] - 1}
		forged, err := tr.RunForged(pool, fleet.Forge{Node: liar, Mode: fleet.ForgeSummary})
		if err != nil {
			return nil, err
		}
		if n := len(forged.Detections); n != 1 {
			return nil, fmt.Errorf("cres: E15 %dx%d: forged hierarchy produced %d detections, want 1", shape.Depth, shape.Fanout, n)
		}
		det := forged.Detections[0]
		row := E15Row{
			Depth:             shape.Depth,
			Fanout:            shape.Fanout,
			Leaves:            tr.Leaves(),
			Devices:           honest.Summary.Devices,
			Summary:           honest.Summary,
			Completion:        honest.Completion,
			HierarchyOverhead: honest.Completion - honest.Summary.Completion,
			SigChecks:         honest.SigChecks,
			MaxHeld:           honest.MaxHeld,
			Liar:              liar,
			Detection:         det,
			Attributed:        det.Liar == liar,
			Healed: bytes.Equal(forged.Summary.AppendCanonical(nil),
				honest.Summary.AppendCanonical(nil)),
		}
		res.Rows = append(res.Rows, row)
	}

	t := report.NewTable("E15 — Hierarchical re-attestation (verifier tree over fleet shards; one mid-tier verifier forges its merged summary)",
		"Depth", "Fanout", "Leaves", "Devices", "Caught/Tampered",
		"Completion (virtual)", "Tree overhead", "Sig checks", "Max held",
		"Liar", "Caught by", "Check", "Detect lag", "Attributed", "Healed")
	yes := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	for _, r := range res.Rows {
		t.AddRow(report.I(r.Depth), report.I(r.Fanout), report.I(r.Leaves), report.I(r.Devices),
			fmt.Sprintf("%d/%d", r.Summary.Caught, r.Summary.Tampered),
			r.Completion.String(), r.HierarchyOverhead.String(),
			report.I(r.SigChecks), report.I(r.MaxHeld),
			r.Liar.String(), r.Detection.By.String(), r.Detection.Kind,
			r.Detection.Lag.String(), yes(r.Attributed), yes(r.Healed))
	}
	res.Table = t
	return res, nil
}
