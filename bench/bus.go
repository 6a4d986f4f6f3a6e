package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"cres/internal/harness"
	"cres/internal/hw"
	"cres/internal/monitor"
	"cres/internal/sim"
)

// bus-monitor drives bus transactions through the reference SoC under
// E9's four observer configurations. It is the device side of the
// paper's argument — monitoring cheap enough for every transaction —
// and touches only hw, monitor and sim. Passes alternate between the
// configurations, in a rotating order, so machine noise lands on all
// four alike and their differences isolate each observer layer. One
// operation is one pass of the full monitor, timed per transaction.

// busParams sizes the bus-monitor workload.
type busParams struct {
	// PassTx is the transactions in one timed pass: three ReadInto to
	// every Write, over a 64 KiB window of SRAM.
	PassTx int `json:"pass_tx"`
	// WarmTx is the pass set-up runs on every configuration.
	WarmTx int `json:"warm_tx"`
	// Setups is how many times the set-up (build the four SoCs and their
	// observers, warm each) runs, spread over the run; setup_s is their
	// median.
	Setups         int     `json:"setups"`
	TailPercentile float64 `json:"tail_percentile"`
}

func busParamsFor(smoke bool) busParams {
	if smoke {
		return busParams{PassTx: 1 << 12, WarmTx: 1 << 10, Setups: 1, TailPercentile: 0.9}
	}
	return busParams{PassTx: 1 << 18, WarmTx: 1 << 14, Setups: 8, TailPercentile: 0.95}
}

// busConfigs are E9's observer configurations, cheapest first; the
// last, the full monitor, gives the end-to-end metrics.
var busConfigs = []string{"bare", "counting", "bus-monitor", "full"}

// busRig is one SoC with one observer configuration.
type busRig struct {
	soc     *hw.SoC
	counted uint64
	mon     *monitor.BusMonitor
	alerts  uint64
	issued  uint64
}

type countingObserver struct{ n *uint64 }

func (c countingObserver) ObserveTx(hw.Transaction, hw.Result) { *c.n++ }

func newBusRig(config string, seed int64) (*busRig, error) {
	e := sim.New(seed)
	soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
	if err != nil {
		return nil, err
	}
	r := &busRig{soc: soc}
	sink := monitor.SinkFunc(func(monitor.Alert) { r.alerts++ })
	switch config {
	case "counting":
		soc.Bus.Subscribe(countingObserver{n: &r.counted})
	case "bus-monitor":
		r.mon, err = monitor.NewBusMonitor(e, monitor.BusConfig{}, sink)
	case "full":
		r.mon, err = monitor.NewBusMonitor(e, monitor.BusConfig{
			ProvisionedWorlds: map[string]hw.World{"app-core": hw.WorldNormal},
			Watchpoints: []monitor.Watchpoint{
				{Region: hw.RegionSlotA, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"updater"}},
				{Region: hw.RegionSlotB, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"updater"}},
			},
			RateWindow: time.Millisecond,
		}, sink)
	}
	if err != nil {
		return nil, err
	}
	if r.mon != nil {
		soc.Bus.Subscribe(r.mon)
	}
	return r, nil
}

// busTraffic is the seeded transaction pattern: the SRAM window and
// the written word.
type busTraffic struct {
	base hw.Addr
	word [8]byte
}

func newBusTraffic(seed int64) busTraffic {
	u := uint64(harness.ShardSeed(seed, 0))
	t := busTraffic{base: hw.AddrSRAM + hw.Addr(u%16)<<16}
	binary.LittleEndian.PutUint64(t.word[:], uint64(harness.ShardSeed(seed, 1)))
	return t
}

// pass issues n transactions and returns how many faulted.
func (r *busRig) pass(t busTraffic, n int) (faults int) {
	var buf [8]byte
	core := r.soc.AppCore
	for i := 0; i < n; i++ {
		addr := t.base + hw.Addr((i*64)%65536)
		var err error
		if i%4 == 3 {
			err = core.Write(addr, t.word[:])
		} else {
			err = core.ReadInto(addr, buf[:])
		}
		if err != nil {
			faults++
		}
	}
	r.issued += uint64(n)
	return faults
}

// check compares the rig's counters with the transactions it issued:
// the bus saw every one without a fault, each observer saw every one,
// and no monitor raised an alert.
func (r *busRig) check(config string) error {
	st := r.soc.Bus.Stats()
	if st.Total != r.issued || st.Faults != 0 {
		return fmt.Errorf("%s: bus counted %d transactions and %d faults, want %d and 0", config, st.Total, st.Faults, r.issued)
	}
	if config == "counting" && r.counted != r.issued {
		return fmt.Errorf("%s: observer saw %d transactions, want %d", config, r.counted, r.issued)
	}
	if r.mon != nil {
		if seen := uint64(r.mon.Snapshot()["tx_total"]); seen != r.issued {
			return fmt.Errorf("%s: monitor saw %d transactions, want %d", config, seen, r.issued)
		}
	}
	if r.alerts != 0 {
		return fmt.Errorf("%s: %d alerts on benign traffic", config, r.alerts)
	}
	return nil
}

// setUpBus builds the four rigs and warms each.
func setUpBus(p busParams, seed int64, t busTraffic) ([]*busRig, error) {
	rigs := make([]*busRig, len(busConfigs))
	for i, c := range busConfigs {
		r, err := newBusRig(c, seed)
		if err != nil {
			return nil, err
		}
		if f := r.pass(t, p.WarmTx); f != 0 {
			return nil, fmt.Errorf("%s: %d faults while warming", c, f)
		}
		rigs[i] = r
	}
	return rigs, nil
}

// busRounds runs rounds of one pass per configuration for d and
// returns each configuration's per-pass ns/tx. The full configuration's
// transactions go to work, whose clock runs only during its passes.
// With tr set, each pass gets a span and the full configuration's
// allocations are counted.
func busRounds(rigs []*busRig, p busParams, t busTraffic, d time.Duration, work *meter, tr *tracer, rep *report) (nsPerTx [][]float64, mallocs uint64) {
	nsPerTx = make([][]float64, len(rigs))
	full := len(rigs) - 1
	deadline := time.Now().Add(d)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for k := range rigs {
			i := (k + round) % len(rigs)
			var ms0, ms1 runtime.MemStats
			var s span
			if tr != nil {
				runtime.ReadMemStats(&ms0)
				s = tr.start("hw.pass."+busConfigs[i], 0)
			}
			if i == full {
				work.begin()
			}
			t0 := time.Now()
			faults := rigs[i].pass(t, p.PassTx)
			ns := float64(time.Since(t0))
			if i == full {
				work.add(t0, float64(p.PassTx))
				work.end()
			}
			if tr != nil {
				// Read before finish: recording the span may allocate.
				runtime.ReadMemStats(&ms1)
				tr.finish(s)
				if i == full {
					mallocs += ms1.Mallocs - ms0.Mallocs
				}
			}
			var err error
			if faults != 0 {
				err = fmt.Errorf("%s: %d faults in a pass", busConfigs[i], faults)
			}
			rep.count(int64(p.PassTx), err)
			nsPerTx[i] = append(nsPerTx[i], ns/float64(p.PassTx))
		}
	}
	return nsPerTx, mallocs
}

func runBus(cfg config, tr *tracer) (*report, error) {
	p := busParamsFor(cfg.smoke)
	rep := newReport(p)
	t := newBusTraffic(cfg.seed)

	var setupS []float64
	setUp := func() ([]*busRig, error) {
		t0 := time.Now()
		r, err := setUpBus(p, cfg.seed, t)
		setupS = append(setupS, time.Since(t0).Seconds())
		return r, err
	}
	rigs, err := setUp()
	if err != nil {
		return nil, err
	}

	measured, setups := cfg.seconds, p.Setups
	if tr != nil {
		measured, setups = measured/2, 1
	}
	ns := make([][]float64, len(busConfigs))
	// The spare rigs stay alive to the end of the run. A SoC's 3 MiB of
	// memory comes zeroed when the heap grows, but must be cleared when
	// it reuses a freed rig's: freed rigs made set-up times wander by 3x
	// within a run. The pages are never touched, so this costs no RSS.
	var spare [][]*busRig
	var work meter
	err = spaced(measured, setups, func(_ int, d time.Duration) {
		chunk, _ := busRounds(rigs, p, t, d, &work, nil, rep)
		for i := range ns {
			ns[i] = append(ns[i], chunk[i]...)
		}
	}, func() error {
		r, err := setUp()
		spare = append(spare, r)
		return err
	})
	runtime.KeepAlive(spare)
	if err != nil {
		return nil, err
	}
	full := ns[len(ns)-1]
	rep.measured(full, p.TailPercentile, &work, setupS)

	var tracedFull []float64
	var mallocs uint64
	if tr != nil {
		var tns [][]float64
		tns, mallocs = busRounds(rigs, p, t, measured, &meter{}, tr, rep)
		tracedFull = tns[len(tns)-1]
	}
	for i, r := range rigs {
		rep.check(r.check(busConfigs[i]))
	}
	if tr == nil {
		return rep, nil
	}

	// Each layer's cost is the difference between the fastest passes of
	// two neighbouring configurations.
	best := make([]float64, len(ns))
	for i := range ns {
		best[i] = fastest(ns[i])
	}
	var alerts uint64
	for _, r := range rigs {
		alerts += r.alerts
	}
	l := rep.layers
	l["hw.bus_ns_per_tx"] = best[0]
	l["hw.observer_ns_per_tx"] = best[1] - best[0]
	l["monitor.bus_ns_per_tx"] = best[2] - best[1]
	l["monitor.watch_rate_ns_per_tx"] = best[3] - best[2]
	l["hw.allocs_per_tx"] = float64(mallocs) / float64(len(tracedFull)*p.PassTx)
	l["monitor.alerts"] = float64(alerts)
	l["trace.overhead_share"] = fastest(tracedFull)/fastest(full) - 1
	return rep, nil
}
