package monitor

import (
	"fmt"
	"time"

	"cres/internal/hw"
	"cres/internal/sim"
)

// Signature classes emitted by the bus monitor.
const (
	SigBusSecurityFault = "bus.security-fault"
	SigBusPermFault     = "bus.perm-fault"
	SigBusWorldMismatch = "bus.world-mismatch"
	SigBusWatchpoint    = "bus.watchpoint"
	SigBusRateAnomaly   = "bus.rate.anomaly"
)

// Watchpoint marks a region whose accesses are policed by the bus
// monitor beyond the hardware checks: any access of a kind in Kinds by
// an initiator not in Allowed raises a Critical alert even if the bus
// itself permitted it.
type Watchpoint struct {
	// Region is the watched region name.
	Region string
	// Kinds is the set of transaction kinds to watch.
	Kinds []hw.TxKind
	// Allowed lists initiators permitted to touch the region.
	Allowed []string
}

func (w *Watchpoint) kindWatched(k hw.TxKind) bool {
	for _, kk := range w.Kinds {
		if kk == k {
			return true
		}
	}
	return false
}

func (w *Watchpoint) initiatorAllowed(name string) bool {
	for _, a := range w.Allowed {
		if a == name {
			return true
		}
	}
	return false
}

// busRateThreshold is the z-score at which an initiator's transaction
// rate is anomalous.
const busRateThreshold = 6

// BusConfig configures a BusMonitor.
type BusConfig struct {
	// ProvisionedWorlds maps initiator names to their legitimate
	// security world. A transaction whose in-flight World exceeds the
	// provisioned world is flagged as tampered (the Section IV bus
	// attack).
	ProvisionedWorlds map[string]hw.World
	// Watchpoints are the policed regions. NewBusMonitor records which
	// transaction kinds they list, so they must not change afterwards. A
	// successful transaction of a kind none lists, within its
	// initiator's provisioned world, skips the watchpoint walk: no
	// watchpoint could alert on it.
	Watchpoints []Watchpoint
	// RateWindow is the sampling window for per-initiator transaction
	// rate anomaly detection. Zero disables rate detection.
	RateWindow time.Duration
	// RateWarmup is the number of windows used to learn the baseline
	// (default 16).
	RateWarmup int
	// DisableSignatures turns off the signature detections (faults,
	// world mismatch, watchpoints), leaving only statistical rate
	// detection — the anomaly-only ablation of experiment E3b.
	DisableSignatures bool
}

// busLane is the monitor's per-initiator state, indexed by the dense
// hw.Transaction.InitiatorID the bus assigns at Attach time. Keeping it
// in a slice makes the per-transaction bookkeeping a bounds-checked
// increment instead of a map hash of the initiator name.
type busLane struct {
	name  string   // interned on first transaction
	count uint64   // txs in the current rate window
	prov  hw.World // provisioned world, 0 when not configured
	det   *Anomaly
}

// BusMonitor observes every interconnect transaction, raising
// signature-based alerts for faults, attribute tampering and watchpoint
// hits, and statistical alerts for per-initiator rate anomalies.
//
// It is an hw.Observer; install with bus.Subscribe.
type BusMonitor struct {
	engine *sim.Engine
	sink   Sink
	cfg    BusConfig

	lanes  []busLane // per-initiator state, indexed by InitiatorID
	ticker *sim.Ticker

	totalTx     uint64
	totalFaults uint64
	totalAlerts uint64

	// watched[k] reports whether any watchpoint lists kind k. It covers
	// every TxKind value, because a tamper hook may rewrite a
	// transaction's kind to any of them.
	watched [256]bool
}

var _ hw.Observer = (*BusMonitor)(nil)
var _ Monitor = (*BusMonitor)(nil)

// NewBusMonitor creates a bus monitor reporting to sink.
func NewBusMonitor(engine *sim.Engine, cfg BusConfig, sink Sink) (*BusMonitor, error) {
	if sink == nil {
		return nil, fmt.Errorf("monitor: bus monitor needs a sink")
	}
	if cfg.RateWarmup == 0 {
		cfg.RateWarmup = 16
	}
	m := &BusMonitor{
		engine: engine,
		sink:   sink,
		cfg:    cfg,
	}
	for _, wp := range cfg.Watchpoints {
		for _, k := range wp.Kinds {
			m.watched[k] = true
		}
	}
	if cfg.RateWindow > 0 {
		t, err := sim.NewTicker(engine, cfg.RateWindow, m.sampleRates)
		if err != nil {
			return nil, fmt.Errorf("monitor: bus rate ticker: %w", err)
		}
		m.ticker = t
	}
	return m, nil
}

// Name implements Monitor.
func (m *BusMonitor) Name() string { return "bus-monitor" }

// Stop halts periodic rate sampling.
func (m *BusMonitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// lane returns the per-initiator state for tx, growing and interning on
// first sight of a new InitiatorID. The returned pointer is valid until
// the next lane call (the backing slice may be regrown).
func (m *BusMonitor) lane(tx *hw.Transaction) *busLane {
	id := tx.InitiatorID
	for id >= len(m.lanes) {
		m.lanes = append(m.lanes, busLane{})
	}
	ln := &m.lanes[id]
	if ln.name == "" {
		ln.name = tx.Initiator
		if prov, ok := m.cfg.ProvisionedWorlds[tx.Initiator]; ok {
			ln.prov = prov
		}
	}
	return ln
}

// ObserveTx implements hw.Observer.
func (m *BusMonitor) ObserveTx(tx hw.Transaction, res hw.Result) {
	m.totalTx++
	ln := m.lane(&tx)
	ln.count++

	if m.cfg.DisableSignatures {
		if !res.OK {
			m.totalFaults++
		}
		return
	}

	// Fast path: a successful transaction within its initiator's
	// provisioned world, of a kind no watchpoint lists, is one that every
	// check below leaves silent. It counts no fault (it succeeded), shows
	// no world mismatch (its world does not exceed the provisioned one,
	// or none is provisioned) and hits no watchpoint (none lists its
	// kind), so returning here loses no alert or counter.
	if res.OK && !m.watched[tx.Kind] && (tx.World <= ln.prov || ln.prov == 0) {
		return
	}

	if !res.OK && res.Fault != nil {
		m.totalFaults++
		switch res.Fault.Code {
		case hw.FaultSecurity:
			m.emit(Alert{
				Monitor: m.Name(), Resource: tx.Initiator, Severity: Critical,
				Signature: SigBusSecurityFault,
				Detail:    fmt.Sprintf("%s: %s-world %s at %#x denied (%s)", tx.Initiator, tx.World, tx.Kind, uint64(tx.Addr), res.Fault.Detail),
			})
		case hw.FaultPerm:
			m.emit(Alert{
				Monitor: m.Name(), Resource: tx.Initiator, Severity: Warning,
				Signature: SigBusPermFault,
				Detail:    fmt.Sprintf("%s: %s at %#x violates region permissions", tx.Initiator, tx.Kind, uint64(tx.Addr)),
			})
		}
	}

	// Attribute tampering: the transaction claims a higher world than
	// the initiator was provisioned with. This fires even when the
	// access *succeeded* — that is precisely the attack.
	if prov := ln.prov; prov != 0 && tx.World > prov {
		m.emit(Alert{
			Monitor: m.Name(), Resource: tx.Initiator, Severity: Critical,
			Signature: SigBusWorldMismatch,
			Detail: fmt.Sprintf("%s provisioned %s but issued %s-world %s at %#x: bus attribute tampering",
				tx.Initiator, prov, tx.World, tx.Kind, uint64(tx.Addr)),
		})
	}

	// Watchpoints.
	for i := range m.cfg.Watchpoints {
		wp := &m.cfg.Watchpoints[i]
		if res.Region != wp.Region || !wp.kindWatched(tx.Kind) {
			continue
		}
		if !wp.initiatorAllowed(tx.Initiator) {
			// Resource names the offending initiator so the security
			// manager can isolate it; the watched region is in the
			// detail.
			m.emit(Alert{
				Monitor: m.Name(), Resource: tx.Initiator, Severity: Critical,
				Signature: SigBusWatchpoint,
				Detail:    fmt.Sprintf("unexpected %s of %s by %s at %#x", tx.Kind, wp.Region, tx.Initiator, uint64(tx.Addr)),
			})
		}
	}
}

// sampleRates runs once per rate window. Iterating the lane slice (not a
// map) keeps the order of same-window rate alerts deterministic across
// runs: lanes are visited in bus attach order.
func (m *BusMonitor) sampleRates(at sim.VirtualTime) {
	for i := range m.lanes {
		ln := &m.lanes[i]
		if ln.name == "" {
			continue // id space hole: initiator never issued a transaction
		}
		n := ln.count
		ln.count = 0
		if ln.det == nil {
			det, err := NewAnomaly(0.2, busRateThreshold, m.cfg.RateWarmup)
			if err != nil {
				// Config validated in NewBusMonitor; unreachable.
				continue
			}
			ln.det = det
		}
		score, bad := ln.det.Observe(float64(n))
		// Only upward deviations are flooding; a quiet resource (e.g.
		// one the response manager just isolated) is not an attack.
		if bad && float64(n) > ln.det.Mean() {
			m.emit(Alert{
				At: at, Monitor: m.Name(), Resource: ln.name, Severity: Warning,
				Signature: SigBusRateAnomaly, Score: score,
				Detail: fmt.Sprintf("%s issued %d txs in window (baseline %.1f±%.1f, z=%.1f)",
					ln.name, n, ln.det.Mean(), ln.det.StdDev(), score),
			})
		}
	}
}

func (m *BusMonitor) emit(a Alert) {
	if a.At == 0 {
		a.At = m.engine.Now()
	}
	m.totalAlerts++
	m.sink.HandleAlert(a)
}

// Snapshot implements Monitor.
func (m *BusMonitor) Snapshot() map[string]float64 {
	return map[string]float64{
		"tx_total":     float64(m.totalTx),
		"faults_total": float64(m.totalFaults),
		"alerts_total": float64(m.totalAlerts),
	}
}
