package cres

// The benchmark harness: one testing.B benchmark per experiment of
// EXPERIMENTS.md (the paper's Table I and Figure 1, plus the derived
// quantitative experiments E3–E10). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment end to end, so -bench also
// doubles as a smoke test of the full pipeline. Reported custom metrics
// carry the experiment's headline number (detection rate, availability,
// bandwidth, ...).

import (
	"testing"
	"time"

	"cres/internal/hw"
	"cres/internal/scenario"
)

func BenchmarkE1_TableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunE1TableI()
		if len(res.Gaps) != 2 {
			b.Fatal("gap derivation broken")
		}
	}
}

func BenchmarkE2_Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunE2Figure1()
		if len(res.Frameworks) != 3 {
			b.Fatal("figure broken")
		}
	}
}

func BenchmarkE3_DetectionMatrix(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := RunE3DetectionMatrix(7, nil)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.CRESRate
	}
	b.ReportMetric(rate*100, "cres-detect-%")
}

func BenchmarkE4_EvidenceContinuity(b *testing.B) {
	var cont float64
	for i := 0; i < b.N; i++ {
		res, err := RunE4EvidenceContinuity(7, nil)
		if err != nil {
			b.Fatal(err)
		}
		cont = res.Rows[0].Continuity
	}
	b.ReportMetric(cont*100, "cres-continuity-%")
}

func BenchmarkE5_GracefulDegradation(b *testing.B) {
	var avail float64
	for i := 0; i < b.N; i++ {
		res, err := RunE5GracefulDegradation(7, 300*time.Millisecond, nil)
		if err != nil {
			b.Fatal(err)
		}
		avail = res.CriticalAvailability["cres"]
	}
	b.ReportMetric(avail*100, "cres-critical-avail-%")
}

func BenchmarkE6_Recovery(b *testing.B) {
	var fastest time.Duration
	for i := 0; i < b.N; i++ {
		res, err := RunE6Recovery(7, nil)
		if err != nil {
			b.Fatal(err)
		}
		fastest = res.Rows[0].TimeToHealthy
	}
	b.ReportMetric(float64(fastest.Microseconds()), "isolate-restore-us")
}

func BenchmarkE7_Rollback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunE7Rollback(7, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Rows[0].Refused {
			b.Fatal("hardened chain accepted downgrade")
		}
	}
}

func BenchmarkE8_FleetAttestation(b *testing.B) {
	sizes := []int{4, 16, 64, 256}
	var mean time.Duration
	var throughput float64
	for i := 0; i < b.N; i++ {
		res, err := RunE8FleetAttestation(sizes, 7, nil)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Rows[len(res.Rows)-1].Summary.MeanLatency()
		throughput = res.DevicesPerSec()
	}
	b.ReportMetric(float64(mean.Microseconds()), "latency-us-virtual")
	b.ReportMetric(throughput, "devices/sec")
}

func BenchmarkE9_MonitorOverhead(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		res, err := RunE9MonitorOverhead(100_000)
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.Rows[3].WallNsPerTx - res.Rows[0].WallNsPerTx
	}
	b.ReportMetric(overhead, "monitor-ns-per-tx")
}

func BenchmarkE10_CovertChannel(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		res, err := RunE10CovertChannel(7, nil)
		if err != nil {
			b.Fatal(err)
		}
		bw = res.Rows[0].BandwidthBps
	}
	b.ReportMetric(bw, "covert-bits-per-vsec")
}

// Micro-benchmarks of the hot substrate paths, for profiling the
// simulator itself.

func BenchmarkDeviceBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := NewDevice(scenario.DeviceSpec{Name: "bench", Seed: int64(i)}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Boot(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonitoredBusTransaction(b *testing.B) {
	d, err := NewDevice(scenario.DeviceSpec{Name: "bench", Seed: 1}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Boot(); err != nil {
		b.Fatal(err)
	}
	var buf [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SoC.AppCore.ReadInto(hw.AddrSRAM+hw.Addr((i*64)%65536), buf[:]) //nolint:errcheck
	}
}

func BenchmarkE3b_DetectionAblation(b *testing.B) {
	var combined float64
	for i := 0; i < b.N; i++ {
		res, err := RunE3bDetectionAblation(7, nil)
		if err != nil {
			b.Fatal(err)
		}
		combined = res.Rates["combined"]
	}
	b.ReportMetric(combined*100, "combined-detect-%")
}

func BenchmarkE11_PointerAuth(b *testing.B) {
	var caught int
	for i := 0; i < b.N; i++ {
		res, err := RunE11PointerAuth(7, nil)
		if err != nil {
			b.Fatal(err)
		}
		caught = res.Rows[1].Caught
	}
	b.ReportMetric(float64(caught)/5, "pac-caught-%")
}
