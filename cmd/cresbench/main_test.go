package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cres/internal/harness"
)

// readReport loads a benchmark report run wrote, indexed by metric name.
func readReport(t *testing.T, path string) (*benchReport, map[string]harness.Metric) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("benchmark report not written: %v", err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("benchmark report is not valid JSON: %v", err)
	}
	if rep.Schema != harness.MetricsSchema {
		t.Fatalf("report schema = %q, want %q", rep.Schema, harness.MetricsSchema)
	}
	by := make(map[string]harness.Metric, len(rep.Metrics))
	for _, m := range rep.Metrics {
		if _, dup := by[m.Name]; dup {
			t.Fatalf("metric %q reported twice", m.Name)
		}
		by[m.Name] = m
	}
	return &rep, by
}

func TestRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	if err := run(options{seed: 7, quick: true, jsonPath: jsonPath, parallel: 4, shards: 2}); err != nil {
		t.Fatal(err)
	}
	rep, by := readReport(t, jsonPath)
	if !rep.Quick || rep.GoVersion == "" || rep.NumCPU <= 0 {
		t.Fatalf("report provenance = quick %v, go %q, cpus %d", rep.Quick, rep.GoVersion, rep.NumCPU)
	}
	for _, config := range []string{"no-monitoring", "counting-observer", "bus-monitor", "bus-monitor+watchpoints+rate"} {
		if m, ok := by["E9/"+config+"/ns_per_tx"]; !ok || m.Value <= 0 {
			t.Errorf("E9 %s: ns/tx = %+v, want > 0", config, m)
		}
		if m, ok := by["E9/"+config+"/overhead_ratio"]; config != "no-monitoring" && (!ok || m.Value <= 0) {
			t.Errorf("E9 %s: overhead ratio = %+v, want > 0", config, m)
		}
	}
	for _, name := range harness.Names() {
		if m, ok := by[name+"/ns_per_op"]; !ok || m.Value <= 0 {
			t.Errorf("%s: ns/op = %+v, want > 0", name, m)
		}
	}
}

func TestRunOnlyFilter(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "only.json")
	if err := run(options{seed: 7, quick: true, jsonPath: jsonPath, parallel: 2, only: "E7,E11", shards: 2}); err != nil {
		t.Fatal(err)
	}
	rep, _ := readReport(t, jsonPath)
	if len(rep.Metrics) != 2 || rep.Metrics[0].Name != "E7/ns_per_op" || rep.Metrics[1].Name != "E11/ns_per_op" {
		t.Fatalf("metrics = %+v, want exactly E7 and E11 ns/op", rep.Metrics)
	}
}

func TestRunRejectsUnknownOnly(t *testing.T) {
	if err := run(options{seed: 7, quick: true, only: "E99", shards: 2}); err == nil {
		t.Fatal("unknown -only experiment accepted")
	}
}

func TestRunCampaign(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "campaign.json")
	if err := run(options{seed: 7, campaign: true, shards: 1, parallel: 4, jsonPath: jsonPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("campaign report not written: %v", err)
	}
	var rep campaignReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "cres-campaign/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Plans != 3 {
		t.Fatalf("plans = %d, want the 3 built-ins", rep.Plans)
	}
	if rep.Cells != 28 {
		t.Fatalf("cells = %d, want 28 ((11 scenarios + 3 plans) × 2 architectures × 1 seed)", rep.Cells)
	}
	if rep.CRESDetectRate != 1.0 || rep.BaselineDetectRate != 0.0 {
		t.Fatalf("rates: cres=%v baseline=%v", rep.CRESDetectRate, rep.BaselineDetectRate)
	}
}

func TestRunCampaignCustomPlan(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "campaign.json")
	if err := run(options{seed: 7, campaign: true, shards: 1, parallel: 4,
		plan: "secure-probe@0,code-injection@5ms", jsonPath: jsonPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep campaignReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Plans != 1 || rep.Cells != 24 {
		t.Fatalf("plans = %d cells = %d, want 1 plan / 24 cells", rep.Plans, rep.Cells)
	}
}

func TestRunCampaignRejectsBadPlan(t *testing.T) {
	if err := run(options{seed: 7, campaign: true, shards: 1, plan: "moonshot"}); err == nil {
		t.Fatal("unknown plan accepted")
	}
}

func TestRunFleetMode(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "fleet.json")
	profPath := filepath.Join(dir, "fleet.pprof")
	if err := run(options{seed: 7, fleet: "4,512", parallel: 4, jsonPath: jsonPath, stable: true, cpuprofile: profPath}); err != nil {
		t.Fatal(err)
	}
	rep, by := readReport(t, jsonPath)
	if len(rep.Metrics) != 2 {
		t.Fatalf("metrics = %+v, want E8's devices/sec and allocs/device", rep.Metrics)
	}
	if m := by["E8/batch=256/shard=4096/devices_per_sec"]; m.Value <= 0 {
		t.Fatalf("devices/sec = %+v, want > 0 under the default batching config", m)
	}
	if fi, err := os.Stat(profPath); err != nil || fi.Size() == 0 {
		t.Fatalf("-cpuprofile wrote nothing: %v", err)
	}
}

// TestReportPathDefaultsEmpty pins that no mode writes a report unless
// -json asks for one, so a run leaves no file behind by accident.
func TestReportPathDefaultsEmpty(t *testing.T) {
	for _, args := range [][]string{{}, {"-quick"}, {"-fleet", "4"}, {"-campaign"}} {
		fs := flag.NewFlagSet("cresbench", flag.ContinueOnError)
		o, err := parseFlags(fs, args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if o.jsonPath != "" {
			t.Errorf("%v: report path = %q, want none", args, o.jsonPath)
		}
	}
}

func TestRunQuickRecordsFleetThroughput(t *testing.T) {
	by := runOnly(t, "E8")
	if m := by["E8/batch=256/shard=4096/devices_per_sec"]; m.Value <= 0 {
		t.Fatalf("devices/sec = %+v, want a value > 0", m)
	}
	if _, ok := by["E8/batch=256/shard=4096/allocs_per_device"]; !ok {
		t.Fatalf("allocs/device missing from %v", by)
	}
}

func TestRunQuickRecordsHierarchy(t *testing.T) {
	by := runOnly(t, "E15")
	shapes := 0
	for name, m := range by {
		switch {
		case strings.HasSuffix(name, "/sig_checks"):
			shapes++
			if m.Value <= 0 {
				t.Errorf("%s = %v, want > 0", name, m.Value)
			}
		case strings.HasSuffix(name, "/detect_lag_ms") && m.Value <= 0:
			t.Errorf("%s = %v, want > 0", name, m.Value)
		case strings.HasSuffix(name, "/unattributed") || strings.HasSuffix(name, "/unhealed"):
			if m.Value != 0 {
				t.Errorf("%s = %v, want 0", name, m.Value)
			}
		}
	}
	if shapes != 3 || len(by) != 1+3*4 {
		t.Fatalf("metrics = %v, want ns/op plus 4 per quick shape (3)", by)
	}
}

func TestRunQuickRecordsService(t *testing.T) {
	by := runOnly(t, "SVC")
	if m := by["SVC/requests_per_sec"]; m.Value <= 0 {
		t.Fatalf("requests/sec = %+v, want a value > 0", m)
	}
	if m := by["SVC/healthz/ns_per_req"]; m.Value <= 0 {
		t.Fatalf("/healthz ns/req = %+v, want a value > 0", m)
	}
	if len(by) != 1+1+6 {
		t.Fatalf("metrics = %v, want ns/op, requests/sec and the script's 6 endpoints", by)
	}
}

// runOnly runs the quick suite restricted to exp, then E7 alone, and
// returns the first run's metrics after checking the second holds none
// of exp's: a run without an experiment reports nothing for it.
func runOnly(t *testing.T, exp string) map[string]harness.Metric {
	t.Helper()
	dir := t.TempDir()
	withPath, withoutPath := filepath.Join(dir, "with.json"), filepath.Join(dir, "without.json")
	if err := run(options{seed: 7, quick: true, only: exp, parallel: 2, jsonPath: withPath}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{seed: 7, quick: true, only: "E7", jsonPath: withoutPath}); err != nil {
		t.Fatal(err)
	}
	_, without := readReport(t, withoutPath)
	for name := range without {
		if strings.HasPrefix(name, exp+"/") {
			t.Fatalf("%s-less run reported %s", exp, name)
		}
	}
	_, with := readReport(t, withPath)
	return with
}

func TestRunRejectsFleetSizes(t *testing.T) {
	for _, bad := range []string{"0", "-5", "abc", ",,", "4096,x"} {
		if err := run(options{seed: 7, fleet: bad}); err == nil {
			t.Errorf("-fleet %q accepted", bad)
		}
	}
	if err := run(options{seed: 7, fleet: "4", campaign: true}); err == nil {
		t.Error("-fleet with -campaign accepted")
	}
}

// TestRunRejectsDroppedFlags pins that a flag the selected mode would
// ignore is a usage error naming both flags, never silently dropped —
// -shards, -quick and -stable even when given at their defaults.
func TestRunRejectsDroppedFlags(t *testing.T) {
	parse := func(args ...string) options {
		o, err := parseFlags(flag.NewFlagSet("cresbench", flag.ContinueOnError), args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return o
	}
	for _, tc := range []struct {
		name  string
		o     options
		flags []string
	}{
		{"-fleet 4 -only E3", options{seed: 7, fleet: "4", only: "E3"}, []string{"-only", "-fleet"}},
		{"-campaign -only E3", options{seed: 7, campaign: true, shards: 1, only: "E3"}, []string{"-only", "-campaign"}},
		{"-only E2 -plan implant-persist", options{seed: 7, quick: true, only: "E2", plan: "implant-persist"}, []string{"-plan", "-campaign"}},
		{"-fleet 4 -plan none", options{seed: 7, fleet: "4", plan: "none"}, []string{"-plan", "-campaign"}},
		{"-fleet 4 -shards 9", parse("-fleet", "4", "-shards", "9"), []string{"-shards", "-campaign"}},
		{"-only E2 -shards 3", parse("-only", "E2", "-shards", "3"), []string{"-shards", "-campaign"}},
		{"-fleet 4 -quick", parse("-fleet", "4", "-quick"), []string{"-quick", "-fleet"}},
		{"-fleet 4 -quick=false", parse("-fleet", "4", "-quick=false"), []string{"-quick", "-fleet"}},
		{"-campaign -shards 1 -quick", parse("-campaign", "-shards", "1", "-quick"), []string{"-quick", "-campaign"}},
		{"-campaign -stable", parse("-campaign", "-stable"), []string{"-stable", "-campaign"}},
		{"-campaign -stable=false -plan secure-probe@0", parse("-campaign", "-stable=false", "-plan", "secure-probe@0"), []string{"-stable", "-campaign"}},
	} {
		err := run(tc.o)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		for _, flag := range tc.flags {
			if !strings.Contains(err.Error(), flag) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, flag)
			}
		}
	}
}

// TestRunRejectsNegativeParallel pins that -parallel below zero is a
// usage error in every mode, while 0 keeps meaning GOMAXPROCS.
func TestRunRejectsNegativeParallel(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    options
		ok   bool
	}{
		{"-fleet 4 -stable -parallel -5", options{seed: 7, fleet: "4", stable: true, parallel: -5}, false},
		{"-quick -only E2 -parallel -1", options{seed: 7, quick: true, only: "E2", parallel: -1}, false},
		{"-campaign -parallel -1", options{seed: 7, campaign: true, shards: 1, parallel: -1}, false},
		{"-fleet 4 -stable -parallel 0", options{seed: 7, fleet: "4", stable: true}, true},
	} {
		err := run(tc.o)
		if tc.ok && err != nil {
			t.Errorf("%s rejected: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "-parallel")) {
			t.Errorf("%s: error %v, want a usage error naming -parallel", tc.name, err)
		}
	}
}
