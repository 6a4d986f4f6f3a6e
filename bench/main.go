// Command bench is the system benchmark of the CRES reproduction. It
// drives four workloads through the layers' public functions from one
// process — the streaming fleet engine, the resident service without
// and with its result store, and the monitored SoC bus — checks every
// output, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh --workload fleet-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload svc-store --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --smoke
//	bash bench/run.sh --compare first.jsonl second.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by a second,
// traced half of the run, and the spans go to
// <workdir>/spans-<workload>.jsonl. BENCHMARK.json at the repository
// root names both lists of metrics and their units. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runLimit bounds one run, set-up included; a run past it is a hang.
const runLimit = 170 * time.Second

// smokeSeconds is how long each workload measures under --smoke.
const smokeSeconds = time.Second

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	smoke   bool
	// workers bounds client goroutines, connections and pool workers.
	workers int
	// dir is the run's private scratch directory.
	dir string
}

// workload is one set of inputs the benchmark runs. run gets a tracer
// only for a traced run.
type workload struct {
	name string
	run  func(cfg config, tr *tracer) (*report, error)
}

var workloads = []workload{
	{"fleet-sweep", runFleet},
	{"svc-cold", runCold},
	{"svc-store", runStore},
	{"bus-monitor", runBus},
}

// report is what a workload run measured and checked.
type report struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string

	e2e    map[string]float64
	layers map[string]float64
	params any
	// op holds each measured operation's time in nanoseconds, tailP the
	// percentile the summary prints as its tail and work the meter of
	// the work done, whose mean rate the summary prints too.
	op    []float64
	tailP float64
	work  *meter
}

func newReport(params any) *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, params: params}
}

// measured records the untraced run: each operation's time op
// (nanoseconds), the meter of its work and its set-up times (seconds).
//
// The host this benchmark was built on slows operations by up to 1.75x
// for seconds or minutes at a time, at random, so a run's median, tail
// and mean throughput swing by 10-40% between runs. The gated latency is
// therefore the fastest operation's, the rule E9 already applies to its
// passes, and the gated throughput is the best short window's. The
// median, the tail and the mean throughput go to standard error.
func (r *report) measured(op []float64, tailP float64, work *meter, setups []float64) {
	r.op, r.tailP, r.work = op, tailP, work
	r.e2e["latency_min_us"] = fastest(op) / 1e3
	r.e2e["throughput_per_s"] = work.bestRate(rateWindow)
	r.e2e["setup_s"] = percentile(setups, 0.5)
}

// spaced measures for d in n equal chunks with a set-up between
// consecutive chunks, so that the n-1 set-ups, and the one before the
// first chunk, fall at different times of the run. measure gets the
// chunk's index and length.
func spaced(d time.Duration, n int, measure func(i int, d time.Duration), setUp func() error) error {
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := setUp(); err != nil {
				return err
			}
		}
		measure(i, d/time.Duration(n))
	}
	return nil
}

// check counts one attempted operation, failed when err is non-nil.
func (r *report) check(err error) { r.count(1, err) }

// count counts n attempted operations, all failed when err is non-nil.
func (r *report) count(n int64, err error) {
	r.attempted.Add(n)
	if err == nil {
		return
	}
	r.failed.Add(n)
	r.mu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance is printed on the line before the result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Revision   string  `json:"vcs_revision,omitempty"`
	Params     any     `json:"params"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-sweep, svc-cold, svc-store or bus-monitor")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	traced := fs.Int("trace", 0, "1 adds a traced half and reports the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files and spans")
	smoke := fs.Bool("smoke", false, "run every workload at tiny scale")
	compare := fs.Bool("compare", false, "compare two files of captured runs: --compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two files of captured runs")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "bench: --trace %d: want 0 or 1\n", *traced)
		return 2
	}
	if !(*seconds > 0) || *seconds > 60 {
		fmt.Fprintf(stderr, "bench: --seconds %v: want in (0, 60]\n", *seconds)
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "bench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		smoke:   *smoke,
		workers: min(2, runtime.NumCPU()),
	}
	var todo []workload
	if *smoke {
		todo = workloads
		cfg.seconds = smokeSeconds
	} else {
		w, ok := lookup(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (valid: %s)\n", *name, workloadNames())
			return 2
		}
		todo = []workload{w}
	}
	code := 0
	for _, w := range todo {
		if c := runOne(w, cfg, spec, *traced == 1, *workdir, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runOne runs one workload in a fresh scratch directory and prints its
// provenance and result lines. The result carries exactly the metrics
// spec lists for the mode.
func runOne(w workload, cfg config, spec benchSpec, traced bool, workdir string, stdout, stderr io.Writer) int {
	cfg.dir = filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep, err := w.run(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if tr != nil {
		if err := tr.write(filepath.Join(workdir, "spans-"+w.name+".jsonl")); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}

	res := result{
		Attempted: rep.attempted.Load(),
		Failed:    rep.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	specs, values := spec.EndToEnd, rep.e2e
	if traced {
		specs, values = spec.PerLayer, rep.layers
	}
	listed := map[string]bool{}
	for _, m := range specs {
		listed[m.Name] = true
	}
	for name := range values {
		if !listed[name] {
			fmt.Fprintf(stderr, "bench: %s measured %s, which BENCHMARK.json does not list\n", w.name, name)
			return 1
		}
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !traced && !ok {
			fmt.Fprintf(stderr, "bench: %s did not measure %s\n", w.name, m.Name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// An end-to-end metric lacks samples only when operations
			// failed; a layer metric lacks them when the traced half
			// drew no request of a class, as a smoke run may.
			if !traced {
				res.Correct = false
			}
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}

	printSummary(stderr, w.name, cfg, traced, rep, res)
	prov := provenance{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: cfg.workers, Revision: revision(), Params: rep.params,
	}
	line, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
	}{prov})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printSummary writes the human-readable form of a run to w.
func printSummary(w io.Writer, name string, cfg config, traced bool, rep *report, res result) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s seed=%d seconds=%v workers=%d: %s, %d attempted, %d failed\n",
		name, cfg.seed, cfg.seconds.Seconds(), cfg.workers, mode, res.Attempted, res.Failed)
	for _, e := range rep.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	if !traced {
		n := len(rep.op)
		fmt.Fprintf(w, "  %d operations: min %.3f us, p50 %.3f us, p%g %.3f us (%d beyond it); mean %.1f work/s\n",
			n, fastest(rep.op)/1e3, percentile(rep.op, 0.5)/1e3, rep.tailP*100,
			percentile(rep.op, rep.tailP)/1e3, beyond(n, rep.tailP), rep.work.rate())
		if !tailOK(n, rep.tailP) {
			fmt.Fprintf(w, "  WARNING: fewer than %d samples beyond the tail percentile\n", minTail)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// revision is the VCS revision stamped into the binary, if any.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}
