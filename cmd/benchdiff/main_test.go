package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"cres/internal/store"
)

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
