package main

import (
	"strings"
	"testing"
	"time"

	"cres"
)

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
// cresim runs one mode, and only the topology mode takes -faults and
// -recover.
func TestRunRejectsDroppedFlags(t *testing.T) {
	topologyAll := topologyOptions()
	topologyAll.all = true
	for _, tc := range []struct {
		name  string
		o     options
		flags []string
	}{
		{"-fleet 4 -topology ring:6", options{fleet: 4, topology: "ring:6", seed: 7}, []string{"-fleet", "-topology"}},
		{"-tree 2:2 -scenario secure-probe", options{tree: "2:2", scenario: "secure-probe", arch: "cres", seed: 7}, []string{"-tree", "-scenario"}},
		{"-topology ring:6 -all", topologyAll, []string{"-topology", "-all"}},
		{"-fleet 4 -plan implant-persist", options{fleet: 4, plan: "implant-persist", seed: 7}, []string{"-fleet", "-plan"}},
		{"-scenario secure-probe -faults high -recover", options{scenario: "secure-probe", arch: "cres", faults: "high", recoverLoop: true, seed: 7}, []string{"-faults", "-topology", "-scenario"}},
		{"-plan implant-persist -recover", options{plan: "implant-persist", arch: "cres", recoverLoop: true, seed: 7}, []string{"-recover", "-topology", "-plan"}},
		{"-fleet 4 -faults low", options{fleet: 4, faults: "low", seed: 7}, []string{"-faults", "-topology", "-fleet"}},
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
