package fleet

import (
	"math"
	"strings"
	"testing"
	"time"

	"cres/internal/cryptoutil"
)

func nan() float64 { return math.NaN() }
func inf() float64 { return math.Inf(1) }

// refConfig returns a valid single-share config for n devices with the
// every-8th deterministic tamper rule.
func refConfig(n int) Config {
	return Config{
		Seed: 7,
		Size: n,
		Shares: []Share{{
			Label:        "ref",
			Firmware:     cryptoutil.Sum([]byte("reference firmware")),
			FirmwareDesc: "firmware v1",
			Fraction:     1,
		}},
		TamperEvery:  8,
		TamperOffset: 3,
	}
}

func TestEngineCatchesExactlyTheTampered(t *testing.T) {
	eng, err := New(refConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.RunParallel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Devices != 1000 {
		t.Fatalf("devices = %d", sum.Devices)
	}
	if sum.Tampered != 125 || sum.Caught != 125 {
		t.Fatalf("tampered %d caught %d, want 125/125", sum.Tampered, sum.Caught)
	}
	if sum.FalseAlarms != 0 {
		t.Fatalf("false alarms = %d", sum.FalseAlarms)
	}
	for _, a := range sum.Sample {
		if a.Index%8 != 3 {
			t.Errorf("sampled device %d is not tampered", a.Index)
		}
		if a.Reason != ReasonCaught {
			t.Errorf("sampled device %d reason %s", a.Index, ReasonString(a.Reason))
		}
	}
	if len(sum.Sample) != DefaultSampleK {
		t.Fatalf("sample holds %d of %d anomalies, want %d", len(sum.Sample), sum.Caught, DefaultSampleK)
	}
}

// TestShardAndBatchBoundariesDontChangeFate pins the core streaming
// invariant: a device's share, tamper verdict and appraisal outcome are
// pure functions of (seed, index), so reconfiguring batch or shard
// sizes changes only scheduling — counts, histogram and sample are
// identical.
func TestShardAndBatchBoundariesDontChangeFate(t *testing.T) {
	base := refConfig(2000)
	configs := []Config{base, base, base}
	configs[1].BatchSize, configs[1].ShardSize = 64, 64
	configs[2].BatchSize, configs[2].ShardSize = 17, 500

	var sums []Summary
	for _, cfg := range configs {
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := eng.RunParallel(nil)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
	}
	for i, sum := range sums[1:] {
		if sum.Devices != sums[0].Devices || sum.Tampered != sums[0].Tampered ||
			sum.Caught != sums[0].Caught || sum.FalseAlarms != sums[0].FalseAlarms {
			t.Errorf("config %d counts differ: %+v vs %+v", i+1, sum, sums[0])
		}
		// The sample admits the same devices whatever the boundaries
		// (latency is scheduling-dependent, so compare identities).
		for j, a := range sum.Sample {
			if a.Index != sums[0].Sample[j].Index || a.Priority != sums[0].Sample[j].Priority {
				t.Errorf("config %d sample[%d] = device %d, want %d", i+1, j, a.Index, sums[0].Sample[j].Index)
			}
		}
	}
}

func TestTamperRateDistribution(t *testing.T) {
	cfg := refConfig(20000)
	cfg.TamperEvery, cfg.TamperOffset = 0, 0
	cfg.Shares = []Share{
		{Label: "a", Firmware: cryptoutil.Sum([]byte("fw a")), Fraction: 0.75, TamperRate: 0.10},
		{Label: "b", Firmware: cryptoutil.Sum([]byte("fw b")), Fraction: 0.25, TamperRate: 0},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Share assignment should be close to the mix fractions.
	counts := [2]int{}
	tamperedB := 0
	for i := 0; i < cfg.Size; i++ {
		s := eng.ShareOf(i)
		counts[s]++
		if s == 1 && eng.Tampered(i) {
			tamperedB++
		}
	}
	if frac := float64(counts[0]) / float64(cfg.Size); frac < 0.73 || frac > 0.77 {
		t.Fatalf("share a holds %.3f of the fleet, want ~0.75", frac)
	}
	if tamperedB != 0 {
		t.Fatalf("share b has tamper rate 0 but %d tampered devices", tamperedB)
	}
	sum, err := eng.RunParallel(nil)
	if err != nil {
		t.Fatal(err)
	}
	// ~10% of ~75% of the fleet.
	if sum.Tampered < 1200 || sum.Tampered > 1800 {
		t.Fatalf("tampered = %d, want ~1500", sum.Tampered)
	}
	if sum.Caught != sum.Tampered || sum.FalseAlarms != 0 {
		t.Fatalf("caught %d of %d, false alarms %d", sum.Caught, sum.Tampered, sum.FalseAlarms)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero size", func(c *Config) { c.Size = 0 }, "size"},
		{"no shares", func(c *Config) { c.Shares = nil }, "shares"},
		{"nan fraction", func(c *Config) { c.Shares[0].Fraction = nan() }, "fraction"},
		{"inf fraction", func(c *Config) { c.Shares[0].Fraction = inf() }, "fraction"},
		{"zero fraction", func(c *Config) { c.Shares[0].Fraction = 0 }, "fraction"},
		{"fractions not 1", func(c *Config) { c.Shares[0].Fraction = 0.5 }, "sum"},
		{"nan rate", func(c *Config) { c.TamperEvery = 0; c.TamperOffset = 0; c.Shares[0].TamperRate = nan() }, "tamper rate"},
		{"rate above 1", func(c *Config) { c.TamperEvery = 0; c.TamperOffset = 0; c.Shares[0].TamperRate = 1.5 }, "tamper rate"},
		{"zero firmware", func(c *Config) { c.Shares[0].Firmware = cryptoutil.Digest{} }, "firmware"},
		{"rule and rates", func(c *Config) { c.Shares[0].TamperRate = 0.5 }, "exclusive"},
		{"offset out of range", func(c *Config) { c.TamperOffset = 8 }, "offset"},
		{"offset without rule", func(c *Config) { c.TamperEvery = 0 }, "offset"},
		{"negative every", func(c *Config) { c.TamperEvery = -1 }, "tamper-every"},
		{"batch above shard", func(c *Config) { c.BatchSize = 100; c.ShardSize = 50 }, "batch"},
		{"negative batch", func(c *Config) { c.BatchSize = -1 }, "negative"},
	}
	for _, tc := range cases {
		cfg := refConfig(100)
		cfg.Shares = append([]Share(nil), cfg.Shares...)
		tc.mut(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestRunShardRejectsOutOfRange(t *testing.T) {
	eng, err := New(refConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunShard(1); err == nil {
		t.Fatal("RunShard accepted a shard beyond the fleet")
	}
}

func TestQuantileAndHistogram(t *testing.T) {
	var s Summary
	if s.Quantile(0.5) != 0 || s.MeanLatency() != 0 {
		t.Fatal("empty summary should report zero latencies")
	}
	s.SampleK = 2
	s.observe(1, ReasonHealthy, LatencyBuckets[0], 10)
	s.observe(2, ReasonHealthy, LatencyBuckets[2], 20)
	s.observe(3, ReasonCaught, LatencyBuckets[len(LatencyBuckets)-1]*10, 30)
	if s.Hist[0] != 1 || s.Hist[2] != 1 || s.Hist[NumBuckets-1] != 1 {
		t.Fatalf("histogram %v", s.Hist)
	}
	if got := s.Quantile(0.5); got != LatencyBuckets[2] {
		t.Fatalf("p50 = %v", got)
	}
	// The overflow bucket reports the observed maximum.
	if got := s.Quantile(1.0); got != s.MaxLatency {
		t.Fatalf("p100 = %v, want max %v", got, s.MaxLatency)
	}
}

func TestSampleKeepsBottomKByPriority(t *testing.T) {
	var s Summary
	s.SampleK = 3
	for i, p := range []uint64{50, 10, 40, 30, 20} {
		s.observe(i, ReasonCaught, time.Millisecond, p)
	}
	want := []uint64{10, 20, 30}
	if len(s.Sample) != 3 {
		t.Fatalf("sample %v", s.Sample)
	}
	for i, a := range s.Sample {
		if a.Priority != want[i] {
			t.Fatalf("sample priorities %v, want %v", s.Sample, want)
		}
	}
}

func TestSampleIndicesRendering(t *testing.T) {
	var empty Summary
	for _, max := range []int{-1, 0, 1, 3} {
		if got := empty.SampleIndices(max); got != "-" {
			t.Errorf("empty sample, max %d: rendered %q, want -", max, got)
		}
	}
	s := Summary{SampleK: 4}
	for i := 0; i < 4; i++ {
		s.observe(i*7, ReasonCaught, 0, uint64(i))
	}
	// max <= 0 elides every index and renders the bare count; the old
	// code emitted a malformed leading-space " (+4 more)" fragment.
	for _, tc := range []struct {
		max  int
		want string
	}{
		{-1, "(+4)"},
		{0, "(+4)"},
		{1, "0 (+3 more)"},
		{2, "0,7 (+2 more)"},
		{4, "0,7,14,21"},
		{5, "0,7,14,21"},
	} {
		if got := s.SampleIndices(tc.max); got != tc.want {
			t.Errorf("max %d: rendered %q, want %q", tc.max, got, tc.want)
		}
	}
}
