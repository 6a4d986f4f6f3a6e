package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cres"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

func TestList(t *testing.T) {
	if err := run(options{list: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFleetSmoke(t *testing.T) {
	if err := run(options{fleet: 512, parallel: 2, seed: 7}); err != nil {
		t.Fatal(err)
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
		{"-fleet 4 -parallel -5", options{fleet: 4, parallel: -5, seed: 7}, false},
		{"-tree 2:2 -parallel -1", options{tree: "2:2", parallel: -1, seed: 7}, false},
		{"-fleet 4 -parallel 0", options{fleet: 4, seed: 7}, true},
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

func TestRunTreeMode(t *testing.T) {
	if err := run(options{tree: "2:2", parallel: 2, seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTreeModeBadShape(t *testing.T) {
	for _, bad := range []string{"2", "2:4:8", "x:2", "2:y", "0:2", "1:1"} {
		if err := run(options{tree: bad, seed: 7}); err == nil {
			t.Errorf("-tree %q accepted", bad)
		}
	}
}

func TestRunSingleScenarioCRES(t *testing.T) {
	if err := run(options{scenario: "secure-probe", arch: "cres", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleScenarioBaseline(t *testing.T) {
	if err := run(options{scenario: "secure-probe", arch: "baseline", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioListBothArchitectures(t *testing.T) {
	if err := run(options{scenario: "secure-probe, code-injection", arch: "both", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBuiltinPlan(t *testing.T) {
	if err := run(options{plan: "network-takeover", arch: "cres", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustomPlanSyntax(t *testing.T) {
	if err := run(options{plan: "secure-probe@0,log-wipe@5ms*2", arch: "cres", seed: 7}); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioModeGolden pins what the scenario mode prints — health
// state, the security manager's counters, services and the forensic
// report, or the baseline's plain log — for two single scenarios, a
// built-in plan, and a plan whose only stage fires after the base
// observation window. Regenerate with:
//
//	go test ./cmd/cresim -run TestScenarioModeGolden -update-golden
func TestScenarioModeGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range []struct {
		args string
		o    options
	}{
		{"-scenario secure-probe,code-injection -arch both", options{scenario: "secure-probe,code-injection", arch: "both", seed: 7}},
		{"-plan network-takeover", options{plan: "network-takeover", arch: "cres", seed: 7}},
		{`-plan "secure-probe@40ms" -arch both`, options{plan: "secure-probe@40ms", arch: "both", seed: 7}},
	} {
		got.WriteString("$ cresim " + tc.args + "\n")
		got.WriteString(captureStdout(t, func() error { return run(tc.o) }))
	}

	golden := filepath.Join("testdata", "scenario_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("scenario-mode output drifted from %s (re-run with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got.String(), want)
	}
}

// captureStdout runs fn with standard output sent to a file and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestUnknownScenario(t *testing.T) {
	if err := run(options{scenario: "nope", arch: "cres", seed: 7}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestUnknownPlan(t *testing.T) {
	if err := run(options{plan: "nope", arch: "cres", seed: 7}); err == nil {
		t.Fatal("unknown plan accepted")
	}
}

func TestUnknownArchitecture(t *testing.T) {
	err := run(options{scenario: "secure-probe", arch: "riscv", seed: 7})
	if err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if !strings.Contains(err.Error(), "cres, baseline, both") {
		t.Fatalf("error %q does not name the valid values", err)
	}
}

func TestNothingSelected(t *testing.T) {
	if err := run(options{arch: "cres", seed: 7}); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// TestRunRejectsDroppedFlags pins that a flag the selected mode would
// ignore is a usage error naming both flags, never silently dropped:
// cresim runs one mode (-list is one), only the scenario mode takes
// -arch, only the topology mode takes -faults, -recover, -dwell, -mode
// and -worm, and -recover takes no -mode. A row without flags must run.
func TestRunRejectsDroppedFlags(t *testing.T) {
	topologyAll := topologyOptions()
	topologyAll.all = true
	topologyArch := topologyOptions()
	topologyArch.arch, topologyArch.given = "both", map[string]bool{"arch": true}
	recoverMode := func(mode string) options {
		o := topologyOptions()
		o.recoverLoop, o.mode = true, mode
		o.given = map[string]bool{"topology": true, "recover": true, "mode": true}
		return o
	}
	for _, tc := range []struct {
		name  string
		o     options
		flags []string
	}{
		{"-fleet 4 -topology ring:6", options{fleet: 4, topology: "ring:6", seed: 7}, []string{"-fleet", "-topology"}},
		{"-tree 2:2 -scenario secure-probe", options{tree: "2:2", scenario: "secure-probe", arch: "cres", seed: 7}, []string{"-tree", "-scenario"}},
		{"-topology ring:6 -all", topologyAll, []string{"-topology", "-all"}},
		{"-fleet 4 -plan implant-persist", options{fleet: 4, plan: "implant-persist", seed: 7}, []string{"-fleet", "-plan"}},
		{"-scenario secure-probe -faults high -recover", options{scenario: "secure-probe", arch: "cres", faults: "high", recoverLoop: true, seed: 7,
			given: map[string]bool{"scenario": true, "faults": true, "recover": true}}, []string{"-faults", "-topology", "-scenario"}},
		{"-plan implant-persist -recover", options{plan: "implant-persist", arch: "cres", recoverLoop: true, seed: 7}, []string{"-recover", "-topology", "-plan"}},
		{"-fleet 4 -faults low", options{fleet: 4, faults: "low", seed: 7, given: map[string]bool{"fleet": true, "faults": true}}, []string{"-faults", "-topology", "-fleet"}},
		{"-fleet 4 -faults none", options{fleet: 4, faults: "none", seed: 7, given: map[string]bool{"fleet": true, "faults": true}}, []string{"-faults", "-topology", "-fleet"}},
		{"-list -fleet 4", options{list: true, fleet: 4, seed: 7, given: map[string]bool{"list": true, "fleet": true}}, []string{"-list", "-fleet"}},
		{"-list -scenario nope", options{list: true, scenario: "nope", arch: "cres", seed: 7, given: map[string]bool{"list": true, "scenario": true}}, []string{"-list", "-scenario"}},
		{"-list -arch riscv", options{list: true, arch: "riscv", seed: 7, given: map[string]bool{"list": true, "arch": true}}, []string{"-arch", "-list"}},
		{"-topology ring:6 -recover -mode baseline", recoverMode(cres.SwarmBaseline), []string{"-mode", "-recover"}},
		{"-topology ring:6 -recover -mode cres-coop", recoverMode(cres.SwarmCooperative), []string{"-mode", "-recover"}},
		{"-fleet 4 -arch riscv", options{fleet: 4, arch: "riscv", seed: 7, given: map[string]bool{"fleet": true, "arch": true}}, []string{"-arch", "-fleet"}},
		{"-tree 2:2 -arch cres", options{tree: "2:2", arch: "cres", seed: 7, given: map[string]bool{"tree": true, "arch": true}}, []string{"-arch", "-tree"}},
		{"-topology ring:6 -arch both", topologyArch, []string{"-arch", "-topology"}},
		{"-scenario secure-probe -mode sideways -worm nope", options{scenario: "secure-probe", arch: "cres", mode: "sideways", worm: "nope", seed: 7,
			given: map[string]bool{"scenario": true, "mode": true, "worm": true}}, []string{"-mode", "-topology", "-scenario"}},
		{"-all -worm secure-probe", options{all: true, arch: "cres", worm: "secure-probe", seed: 7, given: map[string]bool{"all": true, "worm": true}}, []string{"-worm", "-topology", "-all"}},
		{"-fleet 4 -dwell 1ms", options{fleet: 4, dwell: time.Millisecond, seed: 7, given: map[string]bool{"fleet": true, "dwell": true}}, []string{"-dwell", "-topology", "-fleet"}},
		{"-scenario secure-probe -arch both -seed 3 -parallel 2", options{scenario: "secure-probe", arch: "both", seed: 3, parallel: 2,
			given: map[string]bool{"scenario": true, "arch": true, "seed": true, "parallel": true}}, nil},
	} {
		err := run(tc.o)
		if tc.flags == nil {
			if err != nil {
				t.Errorf("%s rejected: %v", tc.name, err)
			}
			continue
		}
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

// topologyOptions is the topology mode as main's flag defaults set it;
// run takes no defaults of its own.
func topologyOptions() options {
	return options{
		topology: "ring:6", seed: 7, parallel: 2,
		dwell: 2 * time.Millisecond, mode: cres.SwarmCooperative, worm: "secure-probe", faults: "none",
	}
}

func TestTopologyMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*options)
	}{
		{"ring:6", func(*options) {}},
		{"star:5 -faults high", func(o *options) { o.topology, o.faults = "star:5", "high" }},
		{"ring:6 -faults low -recover", func(o *options) { o.faults, o.recoverLoop = "low", true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := topologyOptions()
			tc.edit(&o)
			if err := run(o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTopologyModeRejectsBadValues pins that a bad value on top of an
// otherwise valid topology-mode run is a usage error naming its flag,
// never a silent default.
func TestTopologyModeRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*options)
	}{
		{"-topology pentagon", func(o *options) { o.topology = "pentagon" }},
		{"-topology ring:x", func(o *options) { o.topology = "ring:x" }},
		{"-topology ring:6:y", func(o *options) { o.topology = "ring:6:y" }},
		{"-topology ring:6:2:1", func(o *options) { o.topology = "ring:6:2:1" }},
		{"-mode sideways", func(o *options) { o.mode = "sideways" }},
		{"-worm nope", func(o *options) { o.worm = "nope" }},
		{"-faults extreme", func(o *options) { o.faults = "extreme" }},
		{"-dwell 0", func(o *options) { o.dwell = 0 }},
		{"-dwell -1ms -recover", func(o *options) { o.dwell, o.recoverLoop = -time.Millisecond, true }},
		{"-fleet -5", func(o *options) { o.fleet = -5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := topologyOptions()
			tc.edit(&o)
			err := run(o)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if flag, _, _ := strings.Cut(tc.name, " "); !strings.Contains(err.Error(), flag) {
				t.Fatalf("%s: error %q does not name %s", tc.name, err, flag)
			}
		})
	}
}
