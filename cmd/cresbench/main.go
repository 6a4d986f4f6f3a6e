// Command cresbench runs the complete experiment suite from the
// harness registry (E1 through E15 plus BV and SVC) and prints every
// table and series — the data behind EXPERIMENTS.md.
//
// Independent simulation runs inside each experiment fan out across a
// worker pool (-parallel); shard seeds derive deterministically from
// the root seed, and results merge in shard order, so the printed
// tables are byte-identical at any parallelism — the property the CI
// determinism gate enforces by diffing -parallel=1 against -parallel=8
// (with -stable masking the host-clock cells of E9).
//
// It also emits a machine-readable benchmark report when -json names a
// file: a cres-bench/v2 report whose flat metrics list holds ns/op for
// each experiment plus every metric an experiment reports (E9 ns/tx,
// overhead ratios and allocs/tx, E8 devices/sec and allocs/device, E15
// costs and invariants, SVC requests/sec and ns/req), each with its
// unit and the direction that is better. The report records; it gates
// nothing. CI keeps a quick one per commit as an artifact, and the perf
// gate is the system benchmark's parent-versus-change comparison
// (scripts/perf-ab.sh). No mode writes a report unless asked.
//
// -campaign switches to the E12 scenario campaign: every attack
// scenario and staged attack plan × {cres, baseline} × -shards seeds,
// printed as one outcome matrix. -plan selects which staged plans join
// the matrix: built-in plan names, "scenario@delay,..." custom syntax,
// or "none" (default: every built-in plan).
//
// -fleet switches to the streaming fleet sweep alone: a comma-separated
// size list ("4096,1048576") runs the E8 fleet engine at exactly those
// sizes and reports devices/sec throughput alongside the summary table;
// its report carries the E8 metrics only.
//
// Usage:
//
//	cresbench [-seed 7] [-quick] [-parallel N] [-only E3,E9] [-stable] [-json report.json]
//	cresbench -campaign [-shards 3] [-seed 7] [-parallel N] [-plan implant-persist] [-json campaign.json]
//	cresbench -fleet 4096,65536 [-parallel N] [-json fleet.json] [-cpuprofile fleet.pprof]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cres"
	"cres/internal/harness"
	"cres/internal/scenario"
	_ "cres/internal/service" // registers the SVC experiment
)

// options collects the CLI flags.
type options struct {
	seed       int64
	quick      bool
	jsonPath   string
	parallel   int
	campaign   bool
	shards     int
	plan       string
	fleet      string
	only       string
	stable     bool
	cpuprofile string
	// given names the flags set on the command line, so a flag that
	// carries a default (-shards) can still be told apart from one the
	// user gave.
	given map[string]bool
}

// parseFlags defines the CLI flags on fs and parses args into options.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.Int64Var(&o.seed, "seed", 7, "simulation root seed; shard seeds derive from it")
	fs.BoolVar(&o.quick, "quick", false, "smaller sweeps for a fast run")
	fs.StringVar(&o.jsonPath, "json", "", "write the machine-readable report here (default: none)")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size for independent simulation runs (0 = GOMAXPROCS)")
	fs.BoolVar(&o.campaign, "campaign", false, "run the E12 scenario campaign instead of the experiment suite")
	fs.IntVar(&o.shards, "shards", 3, "campaign seed replicas per attack × architecture cell")
	fs.StringVar(&o.plan, "plan", "", `campaign staged plans: built-in names, "scenario@delay,..." syntax, or "none" (default: all built-ins)`)
	fs.StringVar(&o.fleet, "fleet", "", `comma-separated fleet sizes, e.g. "4096,1048576": run the streaming fleet sweep only`)
	fs.StringVar(&o.only, "only", "", "comma-separated experiment filter, e.g. E3,E9 (suite mode)")
	fs.BoolVar(&o.stable, "stable", false, "mask host-clock readings so output is byte-identical across runs")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
	err := fs.Parse(args)
	o.given = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { o.given[f.Name] = true })
	return o, err
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cresbench:", err)
		os.Exit(1)
	}
}

// benchReport is the schema of a -json report: the run's provenance
// and one flat list of metrics.
type benchReport struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Metrics   []harness.Metric `json:"metrics"`
}

func newBenchReport(o options) *benchReport {
	return &benchReport{
		Schema:    harness.MetricsSchema,
		Seed:      o.seed,
		Quick:     o.quick,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
}

// campaignReport is the schema of the -campaign JSON artifact.
type campaignReport struct {
	Schema             string  `json:"schema"`
	Seed               int64   `json:"seed"`
	SeedsPerCell       int     `json:"seeds_per_cell"`
	Plans              int     `json:"plans"`
	Cells              int     `json:"cells"`
	CRESDetectRate     float64 `json:"cres_detect_rate"`
	CRESRecoverRate    float64 `json:"cres_recover_rate"`
	BaselineDetectRate float64 `json:"baseline_detect_rate"`
}

func run(o options) error {
	if o.parallel < 0 {
		return fmt.Errorf("-parallel %d, want >= 0 (0 = GOMAXPROCS)", o.parallel)
	}
	if o.campaign && o.fleet != "" {
		return fmt.Errorf("-campaign and -fleet are exclusive modes")
	}
	var mode string // "" is suite mode
	switch {
	case o.campaign:
		mode = "-campaign"
	case o.fleet != "":
		mode = "-fleet"
	}
	switch {
	case o.only != "" && mode != "":
		return fmt.Errorf("-only works only in suite mode, not with %s", mode)
	case o.given["quick"] && mode != "":
		return fmt.Errorf("-quick works only in suite mode, not with %s", mode)
	case o.given["stable"] && o.campaign:
		return fmt.Errorf("-stable works only in suite mode and with -fleet, not with -campaign (its table holds no host-clock reading)")
	case o.plan != "" && !o.campaign:
		return fmt.Errorf("-plan works only with -campaign")
	case o.given["shards"] && !o.campaign:
		return fmt.Errorf("-shards works only with -campaign")
	}
	pool := harness.NewPool(o.parallel)
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.campaign {
		return runCampaign(o, pool)
	}
	if o.fleet != "" {
		return runFleet(o, pool)
	}
	return runSuite(o, pool)
}

// runSuite iterates the experiment registry in registration (print)
// order. Experiments run one after another — each fans its own shards
// across the pool — so E9's serial host-clock measurement is never
// contended by other experiments.
func runSuite(o options, pool *harness.Pool) error {
	fmt.Println("CRES experiment suite — reproduction of Siddiqui, Hagan & Sezer, IEEE SOCC 2019")
	fmt.Println()

	selected := map[string]bool{}
	for _, name := range strings.Split(o.only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected[name] = true
		}
	}
	for name := range selected {
		if _, ok := harness.Lookup(name); !ok {
			return fmt.Errorf("unknown experiment %q in -only (registry has %s)", name, strings.Join(harness.Names(), ", "))
		}
	}

	rep := newBenchReport(o)
	ctx := &harness.Context{Seed: o.seed, Quick: o.quick, Stable: o.stable, Pool: pool}
	for _, exp := range harness.Experiments() {
		if len(selected) > 0 && !selected[exp.Name] {
			continue
		}
		out, err := exp.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.Name, err)
		}
		for _, block := range out.Blocks {
			fmt.Println(block)
		}
		// NsPerOp is measured by the runner around the computation only,
		// so the report tracks the simulator, not the rendering.
		rep.Metrics = append(rep.Metrics, harness.Metric{
			Name: exp.Name + "/ns_per_op", Unit: "ns", Value: out.NsPerOp, Better: harness.Lower,
		})
		rep.Metrics = append(rep.Metrics, out.Metrics...)
	}
	return writeReport(o.jsonPath, "benchmark", rep)
}

// runCampaign runs the E12 scenario campaign matrix.
func runCampaign(o options, pool *harness.Pool) error {
	fmt.Println("CRES scenario campaign — attack suite + staged plans × {cres, baseline} × seeds")
	fmt.Println()
	plans, err := scenario.ParsePlans(o.plan)
	if err != nil {
		return err
	}
	res, err := cres.RunE12Campaign(scenario.CampaignSpec{
		RootSeed: o.seed,
		Seeds:    o.shards,
		Plans:    plans,
	}, pool)
	if err != nil {
		return err
	}
	fmt.Println(res.Table.Render())

	return writeReport(o.jsonPath, "campaign", &campaignReport{
		Schema:             "cres-campaign/v1",
		Seed:               o.seed,
		SeedsPerCell:       o.shards,
		Plans:              len(plans),
		Cells:              len(res.Cells),
		CRESDetectRate:     res.CRESDetectRate,
		CRESRecoverRate:    res.CRESRecoverRate,
		BaselineDetectRate: res.BaselineDetectRate,
	})
}

// runFleet runs the streaming fleet sweep at exactly the -fleet sizes.
func runFleet(o options, pool *harness.Pool) error {
	sizes, err := parseFleetSizes(o.fleet)
	if err != nil {
		return err
	}
	fmt.Println("CRES streaming fleet sweep — remote attestation at fleet scale")
	fmt.Println()
	res, err := cres.RunE8FleetAttestation(sizes, o.seed, pool)
	if err != nil {
		return err
	}
	fmt.Println(res.Table.Render())
	fmt.Println(res.Series.Render())
	// Throughput is a host-clock reading; mask it under -stable so the
	// determinism gates can diff -fleet output too.
	if o.stable {
		fmt.Printf("appraised %d devices (throughput masked by -stable)\n", res.TotalDevices)
	} else {
		fmt.Printf("appraised %d devices in %v (%.0f devices/sec)\n", res.TotalDevices, res.Wall.Round(time.Millisecond), res.DevicesPerSec())
	}

	rep := newBenchReport(o)
	rep.Metrics = res.Metrics()
	return writeReport(o.jsonPath, "fleet", rep)
}

// parseFleetSizes parses the -fleet value: a comma-separated list of
// positive device counts.
func parseFleetSizes(s string) ([]int, error) {
	var sizes []int
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		n, err := strconv.Atoi(field)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-fleet size %q: want a positive device count", field)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("-fleet value %q names no sizes", s)
	}
	return sizes, nil
}

// writeReport writes v as indented JSON to path; an empty path writes
// nothing.
func writeReport(path, kind string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Printf("wrote %s report to %s\n", kind, path)
	return nil
}
