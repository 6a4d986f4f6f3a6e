package monitor

import (
	"fmt"
	"time"

	"cres/internal/hw"
	"cres/internal/sim"
)

// Signature classes emitted by the timing monitor.
const (
	SigTimingMissAnomaly = "timing.miss-rate.anomaly"
	SigTimingCrossWorld  = "timing.cross-world-eviction"
)

// The miss-rate detector flags a window whose z-score reaches
// timingMissThreshold, after timingWarmup windows of baseline learning.
const (
	timingMissThreshold = 5
	timingWarmup        = 16
)

// TimingConfig configures a TimingMonitor.
type TimingConfig struct {
	// Window is the sampling period.
	Window time.Duration
	// CrossWorldPerWindow is the absolute number of cross-world
	// evictions per window above which the covert-channel signature
	// fires (default 8).
	CrossWorldPerWindow uint64
}

// TimingMonitor samples the shared cache and detects the
// microarchitectural side-channel activity of Section IV: an anomalous
// miss rate (prime+probe flushing) and elevated cross-world evictions
// (the covert-channel transmission medium itself).
type TimingMonitor struct {
	engine *sim.Engine
	cache  *hw.Cache
	sink   Sink
	cfg    TimingConfig

	prev      hw.CacheStats
	missDet   *Anomaly
	ticker    *sim.Ticker
	samples   uint64
	anomalies uint64
}

var _ Monitor = (*TimingMonitor)(nil)

// NewTimingMonitor creates and starts a timing monitor over the cache.
func NewTimingMonitor(engine *sim.Engine, cache *hw.Cache, cfg TimingConfig, sink Sink) (*TimingMonitor, error) {
	if sink == nil {
		return nil, fmt.Errorf("monitor: timing monitor needs a sink")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("monitor: timing monitor needs a positive window")
	}
	if cfg.CrossWorldPerWindow == 0 {
		cfg.CrossWorldPerWindow = 8
	}
	det, err := NewAnomaly(0.2, timingMissThreshold, timingWarmup)
	if err != nil {
		return nil, err
	}
	m := &TimingMonitor{engine: engine, cache: cache, sink: sink, cfg: cfg, missDet: det}
	t, err := sim.NewTicker(engine, cfg.Window, m.sample)
	if err != nil {
		return nil, fmt.Errorf("monitor: timing ticker: %w", err)
	}
	m.ticker = t
	return m, nil
}

// Name implements Monitor.
func (m *TimingMonitor) Name() string { return "timing-monitor" }

// Stop halts sampling.
func (m *TimingMonitor) Stop() { m.ticker.Stop() }

func (m *TimingMonitor) sample(at sim.VirtualTime) {
	m.samples++
	cur := m.cache.Stats()
	accesses := cur.Accesses - m.prev.Accesses
	misses := cur.Misses - m.prev.Misses
	crossWorld := cur.CrossWorldEvictions - m.prev.CrossWorldEvictions
	m.prev = cur

	if crossWorld >= m.cfg.CrossWorldPerWindow {
		m.anomalies++
		m.sink.HandleAlert(Alert{
			At: at, Monitor: m.Name(), Resource: "llc", Severity: Critical,
			Signature: SigTimingCrossWorld, Score: float64(crossWorld),
			Detail: fmt.Sprintf("%d cross-world cache evictions in window: covert channel activity", crossWorld),
		})
	}

	if accesses == 0 {
		return
	}
	missRate := float64(misses) / float64(accesses)
	score, bad := m.missDet.Observe(missRate)
	if bad {
		m.anomalies++
		m.sink.HandleAlert(Alert{
			At: at, Monitor: m.Name(), Resource: "llc", Severity: Warning,
			Signature: SigTimingMissAnomaly, Score: score,
			Detail: fmt.Sprintf("cache miss rate %.2f deviates from baseline %.2f±%.2f (z=%.1f)",
				missRate, m.missDet.Mean(), m.missDet.StdDev(), score),
		})
	}
}

// Snapshot implements Monitor.
func (m *TimingMonitor) Snapshot() map[string]float64 {
	st := m.cache.Stats()
	out := map[string]float64{
		"samples_total":         float64(m.samples),
		"anomalies_total":       float64(m.anomalies),
		"cache_accesses":        float64(st.Accesses),
		"cache_misses":          float64(st.Misses),
		"cross_world_evictions": float64(st.CrossWorldEvictions),
	}
	if st.Accesses > 0 {
		out["miss_rate"] = float64(st.Misses) / float64(st.Accesses)
	}
	return out
}
