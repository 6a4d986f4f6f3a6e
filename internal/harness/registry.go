package harness

import (
	"fmt"
	"sync"
)

// Context carries the knobs one experiment run receives from the suite
// driver.
type Context struct {
	// Seed is the root seed; shard seeds derive from it via ShardSeed.
	Seed int64
	// Quick selects the reduced sweeps used by CI smoke runs.
	Quick bool
	// Stable suppresses host-clock readings in rendered output so two
	// runs at the same seed are byte-identical — the determinism gate's
	// mode.
	Stable bool
	// Pool bounds the run's parallel fan-out. Nil means serial.
	Pool *Pool
}

// Outcome is what one experiment run hands back to the driver.
type Outcome struct {
	// Blocks are rendered text blocks in print order (tables, series,
	// free-form lines). The driver prints each followed by a newline.
	Blocks []string
	// Metrics are the measurements the experiment reports for the
	// cresbench -json report; nil for experiments that report none.
	Metrics []Metric
	// NsPerOp is the host-CPU nanoseconds the experiment's computation
	// took, measured by the runner around the computation only — table
	// rendering happens outside the window, so the recorded perf
	// trajectory tracks the simulator, not the log sink.
	NsPerOp float64
}

// Runner executes one experiment under the given context.
type Runner func(*Context) (*Outcome, error)

// Experiment is a registered experiment.
type Experiment struct {
	// Name is the stable experiment identifier, e.g. "E3".
	Name string
	// Run executes the experiment.
	Run Runner
}

var (
	regMu    sync.Mutex
	registry []Experiment
	regNames = make(map[string]bool)
)

// Register adds an experiment to the registry. Registration order is
// print order. It panics on an empty name, nil runner or duplicate —
// all programming errors in the experiment files.
func Register(name string, run Runner) {
	if name == "" || run == nil {
		panic("harness: Register needs a name and a runner")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if regNames[name] {
		panic(fmt.Sprintf("harness: experiment %q registered twice", name))
	}
	regNames[name] = true
	registry = append(registry, Experiment{Name: name, Run: run})
}

// Experiments returns the registered experiments in registration order.
func Experiments() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Names returns the registered experiment names in registration
// order — the valid-value list CLI flag validation and the resident
// service's /experiments endpoint render.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
