// Package monitor implements the paper's Characteristic 2: Active Runtime
// Resource Monitors. Each monitor watches one class of platform resource —
// bus traffic, control flow, cache timing, environmental sensors, network
// messages — producing fine-grained, resource-specific observations and
// raising alerts toward the System Security Manager (package core).
//
// Detection combines the two classical methods the paper surveys under
// the DETECT core security function: signature-based rules (known-bad
// patterns such as security faults, invalid control-flow edges, replayed
// nonces) and statistical anomaly detection (EWMA mean/variance with a
// z-score threshold over per-resource rates).
//
// Determinism contract: monitors sample on sim tickers and keep
// per-resource state in dense slices or explicitly ordered walks, so
// the alert stream — order, timing, text — is a pure function of the
// engine seed and the observed workload. The bus monitor's per-
// transaction path is allocation-free; alloc_test.go and E9's
// ordering test hold it to that.
//
// Cost of a benign bus transaction: one that succeeded, carries a world
// no higher than its initiator's provisioned one, and is of a kind no
// watchpoint lists costs the bus monitor its lane count and one lookup
// in the set of watched kinds that NewBusMonitor compiles. It formats
// nothing and walks no watchpoint, because no check could alert on it;
// FuzzBusMonitorVerdicts holds the monitor to a reference evaluator
// that runs every check. On the bench bus-monitor workload (three
// 8-byte reads to every write, 2-vCPU Intel Xeon), the full
// configuration's watchpoint and rate layer measured 0.6-0.9 ns per
// transaction, against 2.0-2.5 ns when every transaction walked the
// watchpoints.
package monitor
