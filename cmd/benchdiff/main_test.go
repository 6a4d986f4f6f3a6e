package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cres"
	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/service"
	"cres/internal/store"
)

// The metric builders below go through the experiments' own Metrics
// methods, so every row is judged under the budgets the code ships.

// e9Row is one non-reference E9 configuration whose passes took ns/tx
// against refNs for the reference in the same rounds.
func e9Row(refNs float64, config string, ns, allocs float64) []harness.Metric {
	return (&cres.E9Result{Rows: []cres.E9Row{{Config: config, WallNsPerTx: ns, OverheadRatio: ns / refNs,
		AllocsPerTx: allocs}}}).Metrics()
}

// ref is the E9 no-monitoring row E8's devices/sec is normalized by.
func ref(ns float64) []harness.Metric {
	return (&cres.E9Result{Rows: []cres.E9Row{{Config: "no-monitoring", WallNsPerTx: ns}}}).Metrics()
}

// e9 is one E9 run: the reference at refNs and config at ns.
func e9(refNs float64, config string, ns, allocs float64) []harness.Metric {
	return join(ref(refNs), e9Row(refNs, config, ns, allocs))
}

func e8(batch, shard int, devicesPerSec, allocs float64) []harness.Metric {
	return (&cres.E8Result{TotalDevices: int(devicesPerSec), Wall: time.Second,
		BatchSize: batch, ShardSize: shard, AllocsPerDevice: allocs}).Metrics()
}

func e15(depth, fanout, checks int, lagMs float64, attributed, healed bool) []harness.Metric {
	return (&cres.E15Result{Rows: []cres.E15Row{{Depth: depth, Fanout: fanout, SigChecks: checks,
		Detection:  fleet.Detection{Lag: time.Duration(lagMs * float64(time.Millisecond))},
		Attributed: attributed, Healed: healed}}}).Metrics()
}

func svc(requestsPerSec, healthzNs float64) []harness.Metric {
	return (&service.SVCResult{Requests: int(requestsPerSec), Wall: time.Second,
		Endpoints: []service.SVCEndpoint{{Path: "/healthz", NsPerReq: healthzNs}}}).Metrics()
}

func nsPerOp(exp string, ns float64) []harness.Metric {
	return []harness.Metric{{Name: exp + "/ns_per_op", Unit: "ns", Value: ns, Better: harness.Lower}}
}

func join(parts ...[]harness.Metric) []harness.Metric {
	var ms []harness.Metric
	for _, p := range parts {
		ms = append(ms, p...)
	}
	return ms
}

// compareCase is one row of the comparator table: want holds one
// substring per expected problem (none means the gate passes), note a
// substring the printed table must carry.
type compareCase struct {
	name        string
	base, fresh []harness.Metric
	want        []string
	note        string
}

// compareCases is the comparator's table. A row's name is
// "<group>/<case>"; TestCompare<group> runs the group's rows.
var compareCases = []compareCase{
	{name: "NoRegression/small drift on every row",
		base:  e9(16, "bus-monitor", 22, 0),
		fresh: e9(17, "bus-monitor", 23, 0)},
	{name: "NoRegression/ungated metrics may move freely",
		base:  join(nsPerOp("E3", 100), ref(16), svc(100, 1000)),
		fresh: join(nsPerOp("E3", 900), ref(160), svc(100, 9000))},

	{name: "FlagsNsRegression/overhead ratio past budget",
		base:  e9(16, "bus-monitor", 22, 0),
		fresh: e9(16, "bus-monitor", 40, 0),
		want:  []string{"E9/bus-monitor/overhead_ratio"}},

	{name: "WithinThresholdPasses/ratio up 24.4%",
		base:  e9(16, "bus-monitor", 22, 0),
		fresh: e9(16, "bus-monitor", 27.368, 0)},

	{name: "FlagsAllocRegression/any allocs per tx",
		base:  e9(16, "bus-monitor", 22, 0),
		fresh: e9(16, "bus-monitor", 22, 0.5),
		want:  []string{"E9/bus-monitor/allocs_per_tx"}},

	{name: "NormalizedIgnoresMachineSpeed/uniformly 3x slower host",
		base:  e9(16, "bus-monitor", 22, 0),
		fresh: e9(48, "bus-monitor", 66, 0)},
	{name: "NormalizedIgnoresMachineSpeed/ratio regression on a slow host",
		base:  e9(16, "bus-monitor", 22, 0),
		fresh: e9(48, "bus-monitor", 120, 0),
		want:  []string{"E9/bus-monitor/overhead_ratio"}},
	{name: "NormalizedIgnoresMachineSpeed/missing reference",
		base:  join(e9(16, "bus-monitor", 22, 0), e8(256, 4096, 9_000, 1)),
		fresh: join(e9Row(16, "bus-monitor", 22, 0), e8(256, 4096, 9_000, 1)),
		want:  []string{"norm E9/no-monitoring/ns_per_tx", "E9/no-monitoring/allocs_per_tx: gated metric dropped"}},

	{name: "FlagsMissingAndDroppedConfigs/new and dropped config",
		base:  e9(16, "bus-monitor", 22, 0),
		fresh: e9(16, "brand-new", 1, 0),
		want: []string{"E9/brand-new/overhead_ratio: gated metric missing", "E9/brand-new/allocs_per_tx: gated metric missing",
			"E9/bus-monitor/overhead_ratio: gated metric dropped", "E9/bus-monitor/allocs_per_tx: gated metric dropped"}},

	{name: "FleetGate/throughput down 10%",
		base:  join(ref(16), e8(256, 4096, 10_000, 1)),
		fresh: join(ref(16), e8(256, 4096, 9_000, 1))},
	{name: "FleetGate/throughput down 50%",
		base:  join(ref(16), e8(256, 4096, 10_000, 1)),
		fresh: join(ref(16), e8(256, 4096, 5_000, 1)),
		want:  []string{"devices_per_sec"}},

	{name: "FleetNormalizedIgnoresMachineSpeed/uniformly 3x slower host",
		base:  join(ref(16), e8(256, 4096, 9_000, 1)),
		fresh: join(ref(48), e8(256, 4096, 3_000, 1))},
	{name: "FleetNormalizedIgnoresMachineSpeed/engine regression on a slow host",
		base:  join(ref(16), e8(256, 4096, 9_000, 1)),
		fresh: join(ref(48), e8(256, 4096, 1_000, 1)),
		want:  []string{"devices_per_sec"}},

	{name: "FleetConfigMismatch/batching config differs",
		base:  join(ref(16), e8(256, 4096, 9_000, 1)),
		fresh: join(ref(16), e8(1024, 4096, 9_000, 1)),
		want: []string{"E8/batch=1024/shard=4096/devices_per_sec: gated metric missing", "E8/batch=1024/shard=4096/allocs_per_device: gated metric missing",
			"E8/batch=256/shard=4096/devices_per_sec: gated metric dropped", "E8/batch=256/shard=4096/allocs_per_device: gated metric dropped"}},
	{name: "FleetConfigMismatch/same config",
		base:  join(ref(16), e8(256, 4096, 9_000, 1)),
		fresh: join(ref(16), e8(256, 4096, 8_500, 1))},

	{name: "FleetAllocsGate/within budget",
		base:  join(ref(16), e8(256, 4096, 9_000, 2.1)),
		fresh: join(ref(16), e8(256, 4096, 9_000, 3.5))},
	{name: "FleetAllocsGate/over budget",
		base:  join(ref(16), e8(256, 4096, 9_000, 2.1)),
		fresh: join(ref(16), e8(256, 4096, 9_000, 9.5)),
		want:  []string{"allocs_per_device"}},
	{name: "FleetAllocsGate/budget holds whatever the baseline",
		base:  join(ref(16), e8(256, 4096, 9_000, 20)),
		fresh: join(ref(16), e8(256, 4096, 9_000, 9.5)),
		want:  []string{"allocs_per_device"}},

	{name: "FleetSkipsWithoutSection/fresh run without E8",
		base:  join(ref(16), e8(256, 4096, 9_000, 1)),
		fresh: ref(16),
		note:  "E8: not in the fresh report"},
	{name: "FleetSkipsWithoutSection/baseline without E8",
		base:  ref(16),
		fresh: join(ref(16), e8(256, 4096, 9_000, 1)),
		want:  []string{"devices_per_sec: gated metric missing", "allocs_per_device: gated metric missing"}},

	{name: "HierarchyGate/identical",
		base:  join(e15(2, 4, 41, 0.71, true, true), e15(3, 2, 29, 0.57, true, true)),
		fresh: join(e15(2, 4, 41, 0.71, true, true), e15(3, 2, 29, 0.57, true, true))},
	{name: "HierarchyGate/costlier",
		base:  join(e15(2, 4, 41, 0.71, true, true), e15(3, 2, 29, 0.57, true, true)),
		fresh: join(e15(2, 4, 80, 0.71, true, true), e15(3, 2, 29, 1.9, true, true)),
		want:  []string{"E15/2x4/sig_checks", "E15/3x2/detect_lag_ms"}},
	{name: "HierarchyGate/liar unattributed and summary unhealed",
		base:  join(e15(2, 4, 41, 0.71, true, true), e15(3, 2, 29, 0.57, true, true)),
		fresh: join(e15(2, 4, 41, 0.71, false, false), e15(3, 2, 29, 0.57, true, true)),
		want:  []string{"E15/2x4/unattributed", "E15/2x4/unhealed"}},

	{name: "HierarchySkipsWithoutSection/fresh run without E15",
		base:  join(ref(16), e15(2, 4, 41, 0.71, true, true)),
		fresh: ref(16),
		note:  "E15: not in the fresh report"},
	{name: "HierarchySkipsWithoutSection/dropped shape",
		base:  join(e15(2, 4, 41, 0.71, true, true), e15(3, 2, 29, 0.57, true, true)),
		fresh: e15(2, 4, 41, 0.71, true, true),
		want: []string{"E15/3x2/sig_checks: gated metric dropped", "E15/3x2/detect_lag_ms: gated metric dropped",
			"E15/3x2/unattributed: gated metric dropped", "E15/3x2/unhealed: gated metric dropped"}},
	{name: "HierarchySkipsWithoutSection/new shape",
		base:  e15(2, 4, 41, 0.71, true, true),
		fresh: join(e15(2, 4, 41, 0.71, true, true), e15(3, 2, 29, 0.57, true, true)),
		want: []string{"E15/3x2/sig_checks: gated metric missing", "E15/3x2/detect_lag_ms: gated metric missing",
			"E15/3x2/unattributed: gated metric missing", "E15/3x2/unhealed: gated metric missing"}},

	{name: "ServiceGate/throughput down 30%",
		base:  svc(10_000, 50_000),
		fresh: svc(7_000, 50_000)},
	{name: "ServiceGate/throughput down 80%",
		base:  svc(10_000, 50_000),
		fresh: svc(2_000, 50_000),
		want:  []string{"SVC/requests_per_sec"}},
	{name: "ServiceGate/fresh run without SVC",
		base:  join(ref(16), svc(10_000, 50_000)),
		fresh: ref(16),
		note:  "SVC: not in the fresh report"},

	{name: "RejectsMalformedMetrics/unknown gate",
		base:  []harness.Metric{{Name: "X/v", Value: 1, Better: harness.Lower, Gate: "abs"}},
		fresh: []harness.Metric{{Name: "X/v", Value: 1, Better: harness.Lower, Gate: "abs"}},
		want:  []string{`unknown gate "abs"`}},
	{name: "RejectsMalformedMetrics/unknown direction",
		base:  []harness.Metric{{Name: "X/v", Value: 1, Better: "up", Gate: harness.GateRel}},
		fresh: []harness.Metric{{Name: "X/v", Value: 1, Better: "up", Gate: harness.GateRel}},
		want:  []string{"better must be"}},
	{name: "RejectsMalformedMetrics/zero baseline under a relative gate",
		base:  []harness.Metric{{Name: "X/v", Value: 0, Better: harness.Lower, Gate: harness.GateRel}},
		fresh: []harness.Metric{{Name: "X/v", Value: 1, Better: harness.Lower, Gate: harness.GateRel}},
		want:  []string{"must be positive"}},
}

// runCases runs the compareCases rows of the calling test's group.
func runCases(t *testing.T) {
	group := strings.TrimPrefix(t.Name(), "TestCompare")
	ran := 0
	for _, tc := range compareCases {
		g, sub, _ := strings.Cut(tc.name, "/")
		if g != group {
			continue
		}
		ran++
		t.Run(sub, func(t *testing.T) {
			problems, lines := compare(tc.base, tc.fresh)
			if len(problems) != len(tc.want) {
				t.Fatalf("problems = %q, want %d matching %q", problems, len(tc.want), tc.want)
			}
			for _, w := range tc.want {
				if !strings.Contains(strings.Join(problems, "\n"), w) {
					t.Errorf("problems = %q, want one containing %q", problems, w)
				}
			}
			if table := strings.Join(lines, "\n"); !strings.Contains(table, tc.note) {
				t.Errorf("table lacks %q:\n%s", tc.note, table)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("compareCases has no %q rows", group)
	}
}

func TestCompareNoRegression(t *testing.T)                       { runCases(t) }
func TestCompareFlagsNsRegression(t *testing.T)                  { runCases(t) }
func TestCompareWithinThresholdPasses(t *testing.T)              { runCases(t) }
func TestCompareFlagsAllocRegression(t *testing.T)               { runCases(t) }
func TestCompareNormalizedIgnoresMachineSpeed(t *testing.T)      { runCases(t) }
func TestCompareFlagsMissingAndDroppedConfigs(t *testing.T)      { runCases(t) }
func TestCompareFleetGate(t *testing.T)                          { runCases(t) }
func TestCompareFleetNormalizedIgnoresMachineSpeed(t *testing.T) { runCases(t) }
func TestCompareFleetConfigMismatch(t *testing.T)                { runCases(t) }
func TestCompareFleetAllocsGate(t *testing.T)                    { runCases(t) }
func TestCompareFleetSkipsWithoutSection(t *testing.T)           { runCases(t) }
func TestCompareHierarchyGate(t *testing.T)                      { runCases(t) }
func TestCompareHierarchySkipsWithoutSection(t *testing.T)       { runCases(t) }
func TestCompareServiceGate(t *testing.T)                        { runCases(t) }
func TestCompareRejectsMalformedMetrics(t *testing.T)            { runCases(t) }

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	v2 := func(ms ...[]harness.Metric) report {
		return report{Schema: harness.MetricsSchema, Metrics: join(ms...)}
	}
	basePath := write("base.json", v2(e9(16, "bus-monitor", 22, 0)))
	goodPath := write("good.json", v2(e9(16.5, "bus-monitor", 22, 0)))
	badPath := write("bad.json", v2(e9(16, "bus-monitor", 30, 0)))
	v1Path := write("v1.json", map[string]any{"schema": "cres-bench/v1",
		"e9": map[string]any{"rows": []map[string]any{{"config": "no-monitoring", "ns_per_tx": 16}}}})

	if err := run(basePath, goodPath, io.Discard); err != nil {
		t.Fatalf("clean comparison failed: %v", err)
	}
	if err := run(basePath, badPath, io.Discard); err == nil {
		t.Fatal("regression passed the gate")
	}
	if err := run(basePath, "", io.Discard); err == nil {
		t.Fatal("missing -new accepted")
	}
	if err := run(basePath, filepath.Join(dir, "absent.json"), io.Discard); err == nil {
		t.Fatal("unreadable fresh report accepted")
	}
	for _, pair := range [][2]string{{v1Path, goodPath}, {basePath, v1Path}} {
		if err := run(pair[0], pair[1], io.Discard); err == nil || !strings.Contains(err.Error(), "cres-bench/v1") {
			t.Fatalf("v1 report in %v: err = %v, want it refused by schema", pair, err)
		}
	}
}

// TestCommittedBaselinePassesItself pins that the committed baseline
// is a well-formed v2 report whose every gate holds against itself.
func TestCommittedBaselinePassesItself(t *testing.T) {
	const baseline = "../../BENCH_perf.json"
	if err := run(baseline, baseline, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestCompareStoreTrajectory pins the -store mode: identical bodies
// with stable cost pass, a cost blow-up past the limit fails, and a
// body drift within one key's history is a determinism failure even
// when timings are fine.
func TestCompareStoreTrajectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{
		// steady: two runs, same body, mild cost drift — clean.
		{Experiment: "appraise", Seed: 7, Digest: "steady", Body: "{}", NsPerOp: 100},
		{Experiment: "appraise", Seed: 7, Digest: "steady", Body: "{}", NsPerOp: 110},
		// slow: latest run costs 3x the best prior — trajectory regression.
		{Experiment: "appraise", Seed: 7, Digest: "slow", Body: "[]", NsPerOp: 100},
		{Experiment: "appraise", Seed: 7, Digest: "slow", Body: "[]", NsPerOp: 300},
		// drift: body changed between runs of one key — determinism broken.
		{Experiment: "E2", Seed: 7, Digest: "drift", Body: "a", NsPerOp: 10},
		{Experiment: "E2", Seed: 7, Digest: "drift", Body: "b", NsPerOp: 10},
		// lone: single run, nothing to compare.
		{Experiment: "E8", Seed: 7, Digest: "lone", Body: "x", NsPerOp: 10},
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	problems, lines := compareStore(st)
	joined := strings.Join(problems, "; ")
	if len(problems) != 2 {
		t.Fatalf("problems = %v, want the slow trajectory and the body drift", problems)
	}
	if !strings.Contains(joined, "slow") || !strings.Contains(joined, "determinism broken") {
		t.Fatalf("problems = %v, want slow + determinism failures", problems)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "single run") {
		t.Fatalf("lines = %v, want a single-run note for the lone key", lines)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if err := runStore(dir, io.Discard); err == nil {
		t.Fatal("store with regressions passed the gate")
	}
	if err := runStore(filepath.Join(t.TempDir(), "absent"), io.Discard); err == nil {
		t.Fatal("missing store accepted")
	}

	// A clean store passes end to end.
	cleanDir := filepath.Join(t.TempDir(), "clean")
	cst, err := store.Open(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range []float64{100, 110} {
		if err := cst.Append(store.Record{Experiment: "appraise", Seed: 7, Digest: "steady", Body: "{}", NsPerOp: ns}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := runStore(cleanDir, io.Discard); err != nil {
		t.Fatalf("clean store failed the gate: %v", err)
	}
}
