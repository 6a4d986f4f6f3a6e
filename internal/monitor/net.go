package monitor

import (
	"fmt"
	"time"

	"cres/internal/sim"
)

// Signature classes emitted by the network monitor.
const (
	SigNetAuthFailure = "net.auth-failure"
	SigNetReplay      = "net.replay"
	SigNetRateAnomaly = "net.rate.anomaly"
)

// netRateThreshold is the z-score at which a peer's message rate is
// anomalous.
const netRateThreshold = 6

// NetConfig configures a NetMonitor.
type NetConfig struct {
	// RateWindow is the per-peer message-rate sampling window. Zero
	// disables rate anomaly detection.
	RateWindow time.Duration
	// RateWarmup is the number of windows for baseline learning
	// (default 16).
	RateWarmup int
	// AuthFailureEscalation is the number of authentication failures
	// from one peer after which severity escalates from Warning to
	// Critical (default 3).
	AuthFailureEscalation uint64
	// DisableSignatures turns off auth-failure and replay signatures,
	// leaving only rate anomaly detection (E3b ablation).
	DisableSignatures bool
}

// NetMonitor watches machine-to-machine traffic as seen by the device's
// network stack: authentication failures (man-in-the-middle or spoofing
// indicators per Section III-4), replayed messages, and per-peer message
// rate anomalies. The m2m endpoint feeds it via the Observe* methods.
type NetMonitor struct {
	engine *sim.Engine
	sink   Sink
	cfg    NetConfig

	msgCounts    map[string]uint64
	authFailures map[string]uint64
	detectors    map[string]*Anomaly
	ticker       *sim.Ticker

	messages uint64
	alerts   uint64
}

var _ Monitor = (*NetMonitor)(nil)

// NewNetMonitor creates a network monitor.
func NewNetMonitor(engine *sim.Engine, cfg NetConfig, sink Sink) (*NetMonitor, error) {
	if sink == nil {
		return nil, fmt.Errorf("monitor: net monitor needs a sink")
	}
	if cfg.RateWarmup == 0 {
		cfg.RateWarmup = 16
	}
	if cfg.AuthFailureEscalation == 0 {
		cfg.AuthFailureEscalation = 3
	}
	m := &NetMonitor{
		engine:       engine,
		sink:         sink,
		cfg:          cfg,
		msgCounts:    make(map[string]uint64),
		authFailures: make(map[string]uint64),
		detectors:    make(map[string]*Anomaly),
	}
	if cfg.RateWindow > 0 {
		t, err := sim.NewTicker(engine, cfg.RateWindow, m.sampleRates)
		if err != nil {
			return nil, fmt.Errorf("monitor: net rate ticker: %w", err)
		}
		m.ticker = t
	}
	return m, nil
}

// Name implements Monitor.
func (m *NetMonitor) Name() string { return "net-monitor" }

// Stop halts rate sampling.
func (m *NetMonitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// ObserveMessage records a successfully authenticated message from peer.
func (m *NetMonitor) ObserveMessage(peer string) {
	m.messages++
	m.msgCounts[peer]++
}

// ObserveAuthFailure records a message from peer that failed
// authentication — the man-in-the-middle / spoofing signature.
func (m *NetMonitor) ObserveAuthFailure(peer, detail string) {
	m.messages++
	m.authFailures[peer]++
	if m.cfg.DisableSignatures {
		return
	}
	sev := Warning
	if m.authFailures[peer] >= m.cfg.AuthFailureEscalation {
		sev = Critical
	}
	m.emit(Alert{
		Monitor: m.Name(), Resource: peer, Severity: sev,
		Signature: SigNetAuthFailure,
		Detail:    fmt.Sprintf("authentication failure #%d from %s: %s", m.authFailures[peer], peer, detail),
	})
}

// ObserveReplay records a replayed (stale-nonce) message from peer.
func (m *NetMonitor) ObserveReplay(peer, detail string) {
	m.messages++
	if m.cfg.DisableSignatures {
		return
	}
	m.emit(Alert{
		Monitor: m.Name(), Resource: peer, Severity: Critical,
		Signature: SigNetReplay,
		Detail:    fmt.Sprintf("replayed message from %s: %s", peer, detail),
	})
}

func (m *NetMonitor) sampleRates(at sim.VirtualTime) {
	for peer, n := range m.msgCounts {
		det, ok := m.detectors[peer]
		if !ok {
			var err error
			det, err = NewAnomaly(0.2, netRateThreshold, m.cfg.RateWarmup)
			if err != nil {
				continue
			}
			m.detectors[peer] = det
		}
		score, bad := det.Observe(float64(n))
		// Only upward deviations are flooding; a quiet resource (e.g.
		// one the response manager just isolated) is not an attack.
		if bad && float64(n) > det.Mean() {
			m.emit(Alert{
				At: at, Monitor: m.Name(), Resource: peer, Severity: Warning,
				Signature: SigNetRateAnomaly, Score: score,
				Detail: fmt.Sprintf("%s sent %d messages in window (baseline %.1f±%.1f, z=%.1f)",
					peer, n, det.Mean(), det.StdDev(), score),
			})
		}
		m.msgCounts[peer] = 0
	}
}

func (m *NetMonitor) emit(a Alert) {
	if a.At == 0 {
		a.At = m.engine.Now()
	}
	m.alerts++
	m.sink.HandleAlert(a)
}

// Snapshot implements Monitor.
func (m *NetMonitor) Snapshot() map[string]float64 {
	return map[string]float64{
		"messages_total": float64(m.messages),
		"alerts_total":   float64(m.alerts),
	}
}
