package harness

// MetricsSchema names the benchmark report format that carries
// Metrics: cmd/cresbench writes it, cmd/benchdiff reads nothing else.
const MetricsSchema = "cres-bench/v2"

// Directions for Metric.Better.
const (
	Lower  = "lower"
	Higher = "higher"
)

// Gates for Metric.Gate. A metric with no gate is printed, never
// judged.
const (
	// GateRel fails when the fresh value is worse than the baseline by
	// more than Budget, as a fraction of the baseline.
	GateRel = "rel"
	// GateMax fails when the fresh value exceeds Budget, whatever the
	// baseline holds.
	GateMax = "max"
)

// Metric is one named measurement of a benchmark report, carrying the
// rule that gates it. Name is "<experiment>/<what>": the text before
// the first "/" is the registry experiment that measured it, which is
// how the gate tells an experiment a run skipped from a metric it
// dropped.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Better is Lower or Higher.
	Better string `json:"better"`
	// Gate is GateRel, GateMax or empty; Budget is its limit, omitted
	// from the JSON when zero.
	Gate   string  `json:"gate,omitempty"`
	Budget float64 `json:"budget,omitempty"`
	// Norm names another metric of the same report that scales both
	// sides of a GateRel comparison — divided out when lower is
	// better, multiplied in when higher is better — so a uniformly
	// faster or slower host cancels out.
	Norm string `json:"norm,omitempty"`
}
