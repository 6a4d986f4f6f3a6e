package monitor

import (
	"fmt"
	"time"

	"cres/internal/hw"
	"cres/internal/sim"
)

// Signature classes emitted by the environmental monitor.
const (
	SigEnvOutOfBand = "env.out-of-band"
	SigEnvDrift     = "env.drift.anomaly"
)

// EnvBand is the permitted operating band for one sensor, relative to its
// baseline. Physical attacks (voltage glitching, overclocking, heating)
// push readings outside the band.
type EnvBand struct {
	// MaxDeviation is the permitted absolute deviation from baseline.
	MaxDeviation float64
}

// The drift detector flags a window whose z-score reaches
// envDriftThreshold, after envWarmup windows of baseline learning.
const (
	envDriftThreshold = 6
	envWarmup         = 16
)

// EnvConfig configures an EnvMonitor.
type EnvConfig struct {
	// Window is the sampling period.
	Window time.Duration
	// Bands maps sensor names to their permitted bands. Sensors without
	// a band get a default of 10% of baseline.
	Bands map[string]EnvBand
	// DisableBands turns off the out-of-band (threshold signature)
	// detection, leaving only statistical drift detection.
	DisableBands bool
	// DisableDrift turns off statistical drift detection, leaving only
	// the band check.
	DisableDrift bool
}

// EnvMonitor samples the platform's environmental sensors (voltage,
// clock, temperature — Table I's "system monitoring" row) and raises
// alerts for out-of-band readings (glitch/tamper signatures) and slow
// anomalous drift.
type EnvMonitor struct {
	engine  *sim.Engine
	sensors []*hw.EnvSensor
	sink    Sink
	cfg     EnvConfig

	detectors map[string]*Anomaly
	ticker    *sim.Ticker
	samples   uint64
	alerts    uint64
}

var _ Monitor = (*EnvMonitor)(nil)

// NewEnvMonitor creates and starts an environmental monitor.
func NewEnvMonitor(engine *sim.Engine, sensors []*hw.EnvSensor, cfg EnvConfig, sink Sink) (*EnvMonitor, error) {
	if sink == nil {
		return nil, fmt.Errorf("monitor: env monitor needs a sink")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("monitor: env monitor needs a positive window")
	}
	if len(sensors) == 0 {
		return nil, fmt.Errorf("monitor: env monitor needs sensors")
	}
	m := &EnvMonitor{
		engine:    engine,
		sensors:   sensors,
		sink:      sink,
		cfg:       cfg,
		detectors: make(map[string]*Anomaly, len(sensors)),
	}
	for _, s := range sensors {
		det, err := NewAnomaly(0.1, envDriftThreshold, envWarmup)
		if err != nil {
			return nil, err
		}
		m.detectors[s.Name] = det
	}
	t, err := sim.NewTicker(engine, cfg.Window, m.sample)
	if err != nil {
		return nil, fmt.Errorf("monitor: env ticker: %w", err)
	}
	m.ticker = t
	return m, nil
}

// Name implements Monitor.
func (m *EnvMonitor) Name() string { return "env-monitor" }

// Stop halts sampling.
func (m *EnvMonitor) Stop() { m.ticker.Stop() }

func (m *EnvMonitor) band(s *hw.EnvSensor) float64 {
	if b, ok := m.cfg.Bands[s.Name]; ok {
		return b.MaxDeviation
	}
	dev := s.Baseline() * 0.10
	if dev < 0 {
		dev = -dev
	}
	return dev
}

func (m *EnvMonitor) sample(at sim.VirtualTime) {
	m.samples++
	for _, s := range m.sensors {
		v := s.Sample()
		dev := v - s.Baseline()
		if dev < 0 {
			dev = -dev
		}
		if !m.cfg.DisableBands && dev > m.band(s) {
			m.alerts++
			m.sink.HandleAlert(Alert{
				At: at, Monitor: m.Name(), Resource: s.Name, Severity: Critical,
				Signature: SigEnvOutOfBand, Score: dev,
				Detail: fmt.Sprintf("%s sensor %s reads %.3f, baseline %.3f, band ±%.3f: physical tamper indicator",
					s.Kind, s.Name, v, s.Baseline(), m.band(s)),
			})
			continue
		}
		if m.cfg.DisableDrift {
			continue
		}
		score, bad := m.detectors[s.Name].Observe(v)
		if bad {
			m.alerts++
			m.sink.HandleAlert(Alert{
				At: at, Monitor: m.Name(), Resource: s.Name, Severity: Warning,
				Signature: SigEnvDrift, Score: score,
				Detail: fmt.Sprintf("%s sensor %s drifting: %.3f vs learned %.3f±%.3f (z=%.1f)",
					s.Kind, s.Name, v, m.detectors[s.Name].Mean(), m.detectors[s.Name].StdDev(), score),
			})
		}
	}
}

// Snapshot implements Monitor.
func (m *EnvMonitor) Snapshot() map[string]float64 {
	out := map[string]float64{
		"samples_total": float64(m.samples),
		"alerts_total":  float64(m.alerts),
	}
	for _, s := range m.sensors {
		out["sensor."+s.Name] = s.Sample()
	}
	return out
}
