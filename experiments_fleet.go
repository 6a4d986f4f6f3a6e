package cres

import (
	"fmt"
	"runtime"
	"time"

	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/report"
	"cres/internal/scenario"
)

// This file implements experiment E8: fleet-scale remote attestation —
// the secure provisioning & attestation requirement of Table I exercised
// at the verifier, at production scale.
//
// The sweep runs on the streaming fleet engine (internal/fleet): each
// verifier shard appraises its slice of the fleet in fixed-size batches
// and folds every appraisal into a mergeable summary once the
// batch-verify flush that settles it concludes, so memory is bounded by
// one flush of at most max(batch size, 4096) devices per running shard
// — never the fleet — and the full-mode sweep reaches 1,048,576
// devices. Device identity is
// the global fleet index end to end: share assignment, tamper verdict,
// nonce and anomaly-sample priority all derive from (seed, index), so
// there is no name round-trip to truncate or misparse, and shard
// summaries merge associatively in any order.

// FleetSizes returns the default E8 sweep: quick keeps CI smoke fast
// (but still crosses a batch boundary), full stretches three orders of
// magnitude further to a million-device fleet.
func FleetSizes(quick bool) []int {
	if quick {
		return []int{4, 64, 512}
	}
	return []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
}

// E8FleetSpec is the reference fleet workload: a single-share fleet of
// the reference device with every 8th device tampered — the
// deterministic rule the classification regression tests pin.
func E8FleetSpec(size int) scenario.FleetSpec {
	return scenario.FleetSpec{
		Name:         "e8",
		Size:         size,
		TamperEvery:  8,
		TamperOffset: 3,
	}
}

// E8Row is one fleet size's outcome.
type E8Row struct {
	// Devices is the fleet size.
	Devices int
	// Shards is the number of verifier shards the fleet was split into.
	Shards int
	// Summary is the merged fleet summary: counts, latency histogram,
	// completion and the anomaly sample.
	Summary fleet.Summary
}

// E8Result is the fleet attestation sweep.
type E8Result struct {
	Rows   []E8Row
	Table  *report.Table
	Series report.Series
	// TotalDevices is the number of devices appraised across the sweep,
	// and Wall the host time the sweep took — DevicesPerSec is the
	// throughput the benchmark artifact records.
	TotalDevices int
	Wall         time.Duration
	// BatchSize and ShardSize are the engine batching configuration the
	// sweep ran with; the metric names carry them, so throughput is
	// only ever compared config-for-config.
	BatchSize, ShardSize int
	// AllocsPerDevice is the sweep's heap allocations per appraised
	// device (total runtime mallocs across the sweep divided by
	// TotalDevices). The batched hot path pools everything reusable, so
	// this stays O(1), as internal/fleet's TestBatchLoopAllocsPerDeviceO1
	// enforces.
	AllocsPerDevice float64
}

// DevicesPerSec is the sweep's host-clock appraisal throughput.
func (r *E8Result) DevicesPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.TotalDevices) / r.Wall.Seconds()
}

// Metrics reports the sweep's throughput and its allocations per
// device. Both names carry the batching configuration: a bigger batch
// amortizes more key setup per device, so runs under different
// configurations never share a metric. They are information: bench/'s
// fleet-sweep workload gates throughput against the parent commit,
// and TestBatchLoopAllocsPerDeviceO1 gates the allocations.
func (r *E8Result) Metrics() []harness.Metric {
	prefix := fmt.Sprintf("E8/batch=%d/shard=%d/", r.BatchSize, r.ShardSize)
	return []harness.Metric{
		{Name: prefix + "devices_per_sec", Unit: "1/s", Value: r.DevicesPerSec(), Better: harness.Higher},
		{Name: prefix + "allocs_per_device", Unit: "allocs", Value: r.AllocsPerDevice, Better: harness.Lower},
	}
}

// RunE8FleetAttestation sweeps fleet sizes on the streaming fleet
// engine, measuring catch rates, appraisal-latency distribution and
// verifier completion time. Each size runs through the engine's shared
// fleet.(*Engine).RunParallel entry point on pool, and shard summaries
// merge in shard order to the same row at any pool width.
func RunE8FleetAttestation(sizes []int, seed int64, pool *harness.Pool) (*E8Result, error) {
	if len(sizes) == 0 {
		sizes = FleetSizes(false)
	}

	engines := make([]*fleet.Engine, len(sizes))
	for i, n := range sizes {
		cf, err := E8FleetSpec(n).Compile()
		if err != nil {
			return nil, err
		}
		engines[i], err = cf.Engine(seed)
		if err != nil {
			return nil, err
		}
	}

	res := &E8Result{
		Series: report.Series{Name: "attestation-completion", XLabel: "devices", YLabel: "ms"},
	}
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for i, n := range sizes {
		sum, err := engines[i].RunParallel(pool)
		if err != nil {
			return nil, err
		}
		row := E8Row{Devices: n, Shards: engines[i].NumShards(), Summary: sum}
		res.TotalDevices += row.Summary.Devices
		res.Rows = append(res.Rows, row)
		res.Series.Add(float64(n), float64(row.Summary.Completion.Milliseconds()))
	}
	res.Wall = time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if res.TotalDevices > 0 {
		res.AllocsPerDevice = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.TotalDevices)
	}
	if len(engines) > 0 {
		cfg := engines[0].Config()
		res.BatchSize, res.ShardSize = cfg.BatchSize, cfg.ShardSize
	}

	t := report.NewTable("E8 — Fleet attestation sweep (streaming engine; 1 in 8 devices tampered; memory bounded by batch, not fleet)",
		"Devices", "Shards", "Batches", "Tampered", "Caught", "False alarms",
		"Completion (virtual)", "Mean latency", "p50", "p99", "Anomaly sample")
	for _, r := range res.Rows {
		s := r.Summary
		t.AddRow(report.I(r.Devices), report.I(r.Shards), report.I(s.Batches),
			report.I(s.Tampered), report.I(s.Caught), report.I(s.FalseAlarms),
			s.Completion.String(), s.MeanLatency().String(),
			s.Quantile(0.5).String(), s.Quantile(0.99).String(),
			s.SampleIndices(3))
	}
	res.Table = t
	return res, nil
}
