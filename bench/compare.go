package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricDef is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// single definition of its metrics' names and units.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory under run.sh and the parent under go test.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return spec, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// runSet is a set of runs' metric values by workload, then metric.
type runSet map[string]map[string][]float64

// readRuns parses captured standard output of any number of runs: each
// run's provenance line names the workload of the result line after it.
func readRuns(r io.Reader) (runSet, error) {
	set := runSet{}
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var line struct {
			Provenance *provenance            `json:"provenance"`
			Metrics    map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // a line of some other output
		}
		switch {
		case line.Provenance != nil:
			workload = line.Provenance.Workload
		case line.Metrics != nil:
			if workload == "" {
				return nil, fmt.Errorf("a result line without a provenance line before it")
			}
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				set[workload][name] = append(set[workload][name], m.Value)
			}
			workload = ""
		}
	}
	return set, sc.Err()
}

// verdict compares one workload's end-to-end metric across two sets.
type verdict struct {
	workload, metric string
	medA, medB       float64
	// worse is how much B's median is worse than A's, as a share of
	// A's; negative when B is better.
	worse            float64
	spreadA, spreadB float64
	bound            float64
	// flag is "" when B is within the bound and both sets are steady;
	// "REGRESSION" when B is worse than A by more than the bound;
	// "NOISY" when a set's spread exceeds the bound, which set-up time
	// is exempt from.
	flag string
}

// compareSets judges every end-to-end metric of every workload both
// sets ran.
func compareSets(spec benchSpec, a, b runSet) []verdict {
	var out []verdict
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(xa) < 2 || len(xb) < 2 {
				continue
			}
			_, medA, _ := quartiles(xa)
			_, medB, _ := quartiles(xb)
			v := verdict{workload: w.Name, metric: m.Name, medA: medA, medB: medB,
				spreadA: spread(xa), spreadB: spread(xb), bound: m.Bound}
			v.worse = (medB - medA) / medA
			if m.Better == "higher" {
				v.worse = -v.worse
			}
			switch {
			case v.worse > m.Bound:
				v.flag = "REGRESSION"
			case m.Name != "setup_s" && max(v.spreadA, v.spreadB) > m.Bound:
				v.flag = "NOISY"
			}
			out = append(out, v)
		}
	}
	return out
}

func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var sets [2]runSet
	for i, path := range []string{pathA, pathB} {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		sets[i], err = readRuns(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 1
		}
	}
	vs := compareSets(spec, sets[0], sets[1])
	if len(vs) == 0 {
		fmt.Fprintln(stderr, "bench: no workload has at least two runs in both files")
		return 1
	}
	fmt.Fprintf(stdout, "%-12s %-16s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "sprd A", "sprd B", "bound", "flag")
	code := 0
	for _, v := range vs {
		fmt.Fprintf(stdout, "%-12s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
			v.workload, v.metric, v.medA, v.medB, 100*v.worse, 100*v.spreadA, 100*v.spreadB, 100*v.bound, v.flag)
		if v.flag != "" {
			code = 1
		}
	}
	return code
}
