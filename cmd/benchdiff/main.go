// Command benchdiff compares a freshly generated benchmark report
// against the committed baseline (BENCH_perf.json) and exits non-zero
// on a performance regression — the CI guard that keeps the monitoring
// hot path (E9), fleet attestation (E8), the verifier hierarchy (E15)
// and the resident service (SVC) from silently slowing down.
//
// Both reports are cres-bench/v2: one flat list of harness.Metric
// entries, each naming its own gate. The fresh entry's gate, budget
// and norm apply; the budgets live with the experiments that measure
// the metrics, so benchdiff takes no thresholds.
//
//   - rel: fails when the fresh value is worse than the baseline's by
//     more than Budget, as a fraction of the baseline, in the direction
//     Better names. When Norm names another metric, each side is first
//     scaled by its own report's value of it — divided when lower is
//     better, multiplied when higher is better — which cancels out a
//     uniformly faster or slower host.
//   - max: fails when the fresh value exceeds Budget, whatever the
//     baseline holds.
//   - no gate: the value is printed, never judged.
//
// A gated metric in one report but not the other fails: a renamed,
// new or dropped measurement is a change the baseline must follow.
// The exception is a fresh report holding no metric at all of the
// experiment named before the first "/" (an -only run that skipped
// it); that experiment gets one note instead.
//
// The -store mode gates a cresd result store against its own
// trajectory instead of comparing two reports: within every stored
// key's history the bodies must be byte-identical (the determinism
// invariant — a drift is a correctness failure, whatever the host),
// and the latest compute cost must not exceed the best prior run by
// more than 50%.
//
// Usage:
//
//	benchdiff -base BENCH_perf.json -new fresh_perf.json
//	benchdiff -store results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cres/internal/harness"
	"cres/internal/store"
)

// report is the part of a cres-bench/v2 report the gate reads.
type report struct {
	Schema  string           `json:"schema"`
	Metrics []harness.Metric `json:"metrics"`
}

// maxStoreRegress is how far a stored key's latest ns/op may exceed its
// best prior run in -store mode.
const maxStoreRegress = 0.5

func main() {
	basePath := flag.String("base", "BENCH_perf.json", "committed baseline report")
	newPath := flag.String("new", "", "freshly generated report to check")
	storeDir := flag.String("store", "", "gate this cresd result store against its own trajectory instead of comparing reports")
	flag.Parse()

	var err error
	if *storeDir != "" {
		err = runStore(*storeDir, os.Stdout)
	} else {
		err = run(*basePath, *newPath, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(basePath, newPath string, out io.Writer) error {
	if newPath == "" {
		return fmt.Errorf("-new is required")
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	fresh, err := load(newPath)
	if err != nil {
		return err
	}
	problems, lines := compare(base.Metrics, fresh.Metrics)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d perf regression(s):\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	fmt.Fprintln(out, "benchdiff: no regression")
	return nil
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != harness.MetricsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q (regenerate it with cmd/cresbench)", path, r.Schema, harness.MetricsSchema)
	}
	if len(r.Metrics) == 0 {
		return nil, fmt.Errorf("%s: no metrics", path)
	}
	return &r, nil
}

// compare gates fresh against base metric by metric and returns the
// failures plus a printable table.
func compare(base, fresh []harness.Metric) (problems, lines []string) {
	baseBy, freshBy := byName(base), byName(fresh)
	ran := make(map[string]bool)
	for _, f := range fresh {
		ran[experiment(f.Name)] = true
	}
	line := func(name, old, now, change, verdict, rule string) {
		l := fmt.Sprintf("  %-46s %16s -> %16s %9s  %-10s %s", name, old, now, change, verdict, rule)
		lines = append(lines, strings.TrimRight(l, " "))
	}

	lines = append(lines, fmt.Sprintf("benchdiff: %d baseline metrics, %d fresh", len(base), len(fresh)))
	for _, f := range fresh {
		b, inBase := baseBy[f.Name]
		if !inBase {
			if f.Gate == "" {
				line(f.Name, "-", num(f.Value), "", "info", "")
				continue
			}
			problems = append(problems, fmt.Sprintf("%s: gated metric missing from the baseline", f.Name))
			line(f.Name, "-", num(f.Value), "", "NEW", rule(f))
			continue
		}
		oldV, newV, problem := judge(b, f, baseBy, freshBy)
		change := ""
		if oldV != 0 {
			change = fmt.Sprintf("%+.1f%%", (newV/oldV-1)*100)
		}
		verdict := "ok"
		switch {
		case problem != "":
			verdict = "REGRESSION"
			problems = append(problems, problem)
		case f.Gate == "":
			verdict = "info"
		}
		line(f.Name, num(oldV), num(newV), change, verdict, rule(f))
	}

	noted := make(map[string]bool)
	for _, b := range base {
		if _, ok := freshBy[b.Name]; ok || b.Gate == "" {
			continue
		}
		if exp := experiment(b.Name); !ran[exp] {
			if !noted[exp] {
				noted[exp] = true
				lines = append(lines, fmt.Sprintf("  %s: not in the fresh report, its gates skipped (select it when generating the report)", exp))
			}
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: gated metric dropped from the fresh report", b.Name))
		line(b.Name, num(b.Value), "-", "", "DROPPED", rule(b))
	}
	return problems, lines
}

// judge applies the fresh metric's gate to one baseline/fresh pair. It
// returns the two values compared — scaled by the norm, if any — and
// a description of the failure, empty when the metric passes.
func judge(b, f harness.Metric, baseBy, freshBy map[string]harness.Metric) (oldV, newV float64, problem string) {
	oldV, newV = b.Value, f.Value
	switch f.Gate {
	case "":
		return oldV, newV, ""
	case harness.GateMax:
		if newV > f.Budget {
			return oldV, newV, fmt.Sprintf("%s: %g %s exceeds the budget of %g", f.Name, newV, f.Unit, f.Budget)
		}
		return oldV, newV, ""
	case harness.GateRel:
	default:
		return oldV, newV, fmt.Sprintf("%s: unknown gate %q", f.Name, f.Gate)
	}
	if f.Better != harness.Lower && f.Better != harness.Higher {
		return oldV, newV, fmt.Sprintf("%s: better must be %q or %q, not %q", f.Name, harness.Lower, harness.Higher, f.Better)
	}
	if f.Norm != "" {
		bn, fn := baseBy[f.Norm].Value, freshBy[f.Norm].Value
		if bn <= 0 || fn <= 0 {
			return oldV, newV, fmt.Sprintf("%s: norm %s must be present and positive in both reports", f.Name, f.Norm)
		}
		if f.Better == harness.Lower {
			oldV, newV = oldV/bn, newV/fn
		} else {
			oldV, newV = oldV*bn, newV*fn
		}
	}
	if oldV <= 0 {
		return oldV, newV, fmt.Sprintf("%s: baseline value %g must be positive for a relative gate", f.Name, oldV)
	}
	worse := newV/oldV - 1
	if f.Better == harness.Higher {
		worse = -worse
	}
	if worse > f.Budget {
		return oldV, newV, fmt.Sprintf("%s: %.3f -> %.3f is %.1f%% worse (%s is better, limit %.0f%%)",
			f.Name, oldV, newV, worse*100, f.Better, f.Budget*100)
	}
	return oldV, newV, ""
}

// rule describes a metric's gate for the comparison table.
func rule(m harness.Metric) string {
	switch {
	case m.Gate == harness.GateMax:
		return fmt.Sprintf("max %g", m.Budget)
	case m.Gate == harness.GateRel && m.Norm != "":
		return fmt.Sprintf("%s is better, limit %.0f%%, scaled by %s", m.Better, m.Budget*100, m.Norm)
	case m.Gate == harness.GateRel:
		return fmt.Sprintf("%s is better, limit %.0f%%", m.Better, m.Budget*100)
	}
	return ""
}

func num(v float64) string { return fmt.Sprintf("%.3f", v) }

func byName(ms []harness.Metric) map[string]harness.Metric {
	by := make(map[string]harness.Metric, len(ms))
	for _, m := range ms {
		by[m.Name] = m
	}
	return by
}

// experiment returns the registry experiment that measured a metric:
// the name's text before the first "/".
func experiment(name string) string {
	exp, _, _ := strings.Cut(name, "/")
	return exp
}

// runStore gates a cresd result store against its own trajectory. Two
// checks per stored key: every record in the key's history must carry
// byte-identical bodies — identical (experiment, seed, config digest)
// must mean identical results, on any host, or the simulator's
// determinism contract is broken — and the latest recorded compute
// cost must not exceed the best prior run's by more than
// maxStoreRegress.
// Keys with a single record have no trajectory yet and are noted, not
// failed.
func runStore(dir string, out io.Writer) error {
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		return fmt.Errorf("-store: %w", err)
	}

	problems, lines := compareStore(st)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d store regression(s):\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	fmt.Fprintln(out, "benchdiff: store trajectory clean")
	return nil
}

// compareStore runs the -store mode's checks over an open store.
func compareStore(st *store.Store) (problems, lines []string) {
	keys := st.Keys()
	lines = append(lines, fmt.Sprintf("Store trajectory (%d records, %d keys; ns/op limit +%.0f%% over best prior run):",
		st.Len(), len(keys), maxStoreRegress*100))
	for _, k := range keys {
		hist := st.History(k)
		for i := 1; i < len(hist); i++ {
			if hist[i].Body != hist[0].Body {
				problems = append(problems, fmt.Sprintf("%s: run %d body differs from run 0 — determinism broken", k, i))
			}
		}
		if len(hist) < 2 {
			lines = append(lines, fmt.Sprintf("  %-48s %27s", k, "single run, no trajectory"))
			continue
		}
		best := 0.0
		for _, r := range hist[:len(hist)-1] {
			if r.NsPerOp > 0 && (best == 0 || r.NsPerOp < best) {
				best = r.NsPerOp
			}
		}
		last := hist[len(hist)-1].NsPerOp
		if best <= 0 || last <= 0 {
			lines = append(lines, fmt.Sprintf("  %-48s %27s", k, "no ns/op recorded, skipped"))
			continue
		}
		delta := last/best - 1
		status := "ok"
		if delta > maxStoreRegress {
			status = "REGRESSION"
			problems = append(problems, fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%, limit +%.0f%%)",
				k, best, last, delta*100, maxStoreRegress*100))
		}
		lines = append(lines, fmt.Sprintf("  %-48s %10.0f -> %10.0f  (%+6.1f%%)  %s", k, best, last, delta*100, status))
	}
	return problems, lines
}
