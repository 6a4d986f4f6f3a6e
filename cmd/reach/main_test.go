package main

import (
	"strings"
	"testing"
)

// TestParseSymbol pins how `go tool nm` lines map to declared
// functions: the name is everything after the type column (a generic
// instantiation's shape holds spaces), closures and wrappers count for
// the function that declares them, and receivers lose their pointer
// and type arguments.
func TestParseSymbol(t *testing.T) {
	for _, tc := range []struct {
		line, path, name string
	}{
		// cresbench -campaign reaches RunCells only through this shape.
		{"  6b2f40 T cres/internal/scenario.RunCells[go.shape.struct { Scenario string; Seed int64; Stages []cres/internal/attack.Stage }]", "cres/internal/scenario", "RunCells"},
		{"  401000 T cres/internal/fleet.(*Engine).RunParallel", "cres/internal/fleet", "Engine.RunParallel"},
		{"  401000 T cres/internal/cryptoutil.Digest.String", "cres/internal/cryptoutil", "Digest.String"},
		{"  401000 t cres/internal/fleet.(*Engine).RunParallel.func1", "cres/internal/fleet", "Engine.RunParallel"},
		{"  401000 T cres.RunE8FleetAttestation.func2.1", "cres", "RunE8FleetAttestation"},
		{"  401000 T cres/internal/harness.Map.gowrap1", "cres/internal/harness", "Map"},
		{"  401000 T cres/internal/sim.(*Engine).Step.deferwrap1", "cres/internal/sim", "Engine.Step"},
		{"  401000 T cres/internal/hw.(*Bus).issue-fm", "cres/internal/hw", "Bus.issue"},
		{"  401000 T cres/internal/hw.Actuator.Apply-fm", "cres/internal/hw", "Actuator.Apply"},
		{"  401000 T cres/internal/x.Each-range1", "cres/internal/x", "Each"},
		{"  401000 T cres/internal/x.(*Set[go.shape.int]).Add", "cres/internal/x", "Set.Add"},
		{"  401000 T cres/internal/x.Pair[go.shape.string,go.shape.int].Key", "cres/internal/x", "Pair.Key"},
		{"  401000 T cres/internal/x.(*Set[go.shape.int]).Add.func1", "cres/internal/x", "Set.Add"},
		{"  401000 T main.main", "main", "main"},
		{"  401000 T main.run.func3", "main", "run"},
	} {
		path, name, ok := parseSymbol(tc.line)
		if !ok || path != tc.path || name != tc.name {
			t.Errorf("parseSymbol(%q) = %q, %q, %v; want %q, %q", tc.line, path, name, ok, tc.path, tc.name)
		}
	}
	for _, line := range []string{
		"  5d1e00 D cres/internal/fleet.flushCap",
		"  5d1e00 R cres/internal/fleet..stmp_1",
		"         U runtime.morestack",
		"",
	} {
		if path, name, ok := parseSymbol(line); ok {
			t.Errorf("parseSymbol(%q) = %q, %q; want no function", line, path, name)
		}
	}
}

// TestAudit pins the gate's verdicts: an unreached function fails
// unless allowlisted, an allowlisted one fails once a binary reaches
// it or once it is gone, and a main package's function counts as
// reached only in its own binary.
func TestAudit(t *testing.T) {
	declared := map[string]decl{
		"cres/lib.Used":         {pos: "lib/a.go:1", file: "lib/a.go", lines: 3},
		"cres/lib.TestOnly":     {pos: "lib/a.go:5", file: "lib/a.go", lines: 2},
		"cres/lib.Allowed":      {pos: "lib/b.go:1", file: "lib/b.go", lines: 4},
		"cres/lib.NowReached":   {pos: "lib/b.go:9", file: "lib/b.go", lines: 1},
		"cres/cmd/a.helper":     {pos: "cmd/a/main.go:7", file: "cmd/a/main.go", lines: 5, bin: "cres/cmd/a"},
		"cres/cmd/b.elsewhere":  {pos: "cmd/b/main.go:7", file: "cmd/b/main.go", lines: 5, bin: "cres/cmd/b"},
		"cres/lib.T.Method":     {pos: "lib/c.go:3", file: "lib/c.go", lines: 2},
		"cres/lib.T.DeadMethod": {pos: "lib/c.go:8", file: "lib/c.go", lines: 2},
	}
	reached := map[string]bool{
		"cres/lib.Used":        true,
		"cres/lib.NowReached":  true,
		"cres/cmd/a.helper":    true,
		"cres/cmd/a.elsewhere": true, // same name, wrong binary
		"cres/lib.T.Method":    true,
	}
	allow := map[string]string{
		"cres/lib.Allowed":    "a test drives it",
		"cres/lib.NowReached": "a test drives it",
		"cres/lib.Deleted":    "a test drove it",
	}
	problems, summary := audit(declared, reached, allow)
	want := []string{
		"allowlist.txt: cres/lib.Deleted is declared nowhere",
		"cmd/b/main.go:7: cres/cmd/b.elsewhere is reached by no binary (5 lines)",
		"lib/a.go:5: cres/lib.TestOnly is reached by no binary (2 lines)",
		"lib/b.go:9: cres/lib.NowReached is on the allowlist but a binary reaches it",
		"lib/c.go:8: cres/lib.T.DeadMethod is reached by no binary (2 lines)",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
	if !strings.Contains(summary, "4 functions in 4 files (13 lines)") || !strings.Contains(summary, "5 problems") {
		t.Fatalf("summary = %q", summary)
	}
}

// TestParseAllowlist pins the allowlist format: comments and blank
// lines are skipped, and every entry names one function once, with a
// reason. The committed list must parse.
func TestParseAllowlist(t *testing.T) {
	allow, err := parseAllowlist("# comment\n\ncres/lib.F the test drives it\n")
	if err != nil || allow["cres/lib.F"] != "the test drives it" || len(allow) != 1 {
		t.Fatalf("parseAllowlist = %v, %v", allow, err)
	}
	for _, bad := range []string{"cres/lib.F\n", "cres/lib.F  \n", "cres/lib.F why\ncres/lib.F why again\n"} {
		if _, err := parseAllowlist(bad); err == nil {
			t.Errorf("parseAllowlist(%q) accepted", bad)
		}
	}
	if _, err := parseAllowlist(allowlistText); err != nil {
		t.Fatal(err)
	}
}
