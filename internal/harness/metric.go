package harness

// MetricsSchema names the benchmark report format that carries
// Metrics, the one cmd/cresbench writes.
const MetricsSchema = "cres-bench/v2"

// Directions for Metric.Better.
const (
	Lower  = "lower"
	Higher = "higher"
)

// Metric is one named measurement of a benchmark report. Name is
// "<experiment>/<what>": the text before the first "/" is the registry
// experiment that measured it. A report records measurements and
// judges none; the perf gate is the system benchmark's parent-versus-
// change comparison (scripts/perf-ab.sh).
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Better is Lower or Higher.
	Better string `json:"better"`
}
