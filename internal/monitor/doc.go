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
package monitor
