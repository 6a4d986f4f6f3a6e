package cres

import (
	"runtime"
	"slices"
	"time"

	"cres/internal/boot"
	"cres/internal/cryptoutil"
	"cres/internal/harness"
	"cres/internal/hw"
	"cres/internal/monitor"
	"cres/internal/report"
	"cres/internal/sim"
	"cres/internal/tee"
)

// This file implements experiments E9 (monitoring overhead ablation) and
// E10 (covert channel capacity vs detection).

// E9Row is one monitoring configuration's cost.
type E9Row struct {
	Config string
	// WallNsPerTx is the host-CPU nanoseconds per simulated bus
	// transaction in the configuration's fastest pass — the simulator's
	// proxy for the hardware area/latency cost of the monitoring path.
	WallNsPerTx float64
	// OverheadRatio is the median, over rounds, of this configuration's
	// pass time divided by the reference's pass time in the same round;
	// zero for the reference itself.
	OverheadRatio float64
	// AllocsPerTx is the heap allocations per transaction on the
	// steady-state read path (0 means the hot loop is allocation-free).
	AllocsPerTx float64
	// Alerts raised during the run (sanity signal).
	Alerts uint64
}

// E9Result is the overhead ablation.
type E9Result struct {
	Rows  []E9Row
	Table *report.Table
}

// e9Reference is the configuration with no observers attached; every
// other configuration's overhead ratio is measured against it.
const e9Reference = "no-monitoring"

// Metrics reports each configuration's fastest-pass ns/tx, each
// non-reference configuration's overhead ratio and its allocs/tx. They
// are information: bench/'s bus-monitor workload gates the full
// monitor's cost against the parent commit, and TestE9OverheadOrdering
// holds every configuration's read path to zero allocations.
func (r *E9Result) Metrics() []harness.Metric {
	var ms []harness.Metric
	for _, row := range r.Rows {
		prefix := "E9/" + row.Config + "/"
		ms = append(ms, harness.Metric{Name: prefix + "ns_per_tx", Unit: "ns", Value: row.WallNsPerTx, Better: harness.Lower})
		if row.Config != e9Reference {
			ms = append(ms, harness.Metric{Name: prefix + "overhead_ratio", Unit: "ratio", Value: row.OverheadRatio,
				Better: harness.Lower})
		}
		ms = append(ms, harness.Metric{Name: prefix + "allocs_per_tx", Unit: "allocs",
			Value: row.AllocsPerTx, Better: harness.Lower})
	}
	return ms
}

// RenderStable renders the ablation table with host-clock readings
// masked out, leaving only deterministic cells — the form the CI
// determinism gate diffs between parallelism degrees. Both renderings
// come from e9Table, so title and columns cannot drift apart.
func (r *E9Result) RenderStable() string {
	return e9Table(r.Rows, true).Render()
}

// e9Table builds the ablation table. With maskHostClock, the wall-clock
// and MemStats-derived cells (the only non-deterministic ones) render
// as "-".
func e9Table(rows []E9Row, maskHostClock bool) *report.Table {
	t := report.NewTable("E9 — Monitoring-path cost per bus transaction (ablation)",
		"Configuration", "ns/tx (host)", "allocs/tx", "Alerts")
	for _, r := range rows {
		ns, allocs := report.F(r.WallNsPerTx), report.F(r.AllocsPerTx)
		if maskHostClock {
			ns, allocs = "-", "-"
		}
		t.AddRow(r.Config, ns, allocs, report.U(r.Alerts))
	}
	return t
}

// e9Rounds is the number of measurement rounds. Each round runs one
// pass of every configuration, in an order that rotates by one each
// round, so host noise — preemption, cache pollution, a busy
// neighbour — lands on all four alike, and a configuration's ratio to
// the reference in the same round cancels it. The median ratio over
// the rounds discards a round that noise hit unevenly.
const e9Rounds = 5

// RunE9MonitorOverhead measures bus transaction cost under four
// configurations: no observers, a counting-only observer, the full bus
// monitor, and the full monitor plus watchpoints and rate detection.
// txs is the number of transactions per measurement pass (default
// 200k). Each of e9Rounds rounds runs one pass per configuration;
// each configuration reports its fastest pass and its median ratio to
// the reference's pass of the same round.
//
// E9 deliberately takes no pool: it measures host-CPU ns/tx, and
// running its configurations concurrently (or alongside other
// experiments) would contaminate its numbers. The suite driver runs it
// serially.
func RunE9MonitorOverhead(txs int) (*E9Result, error) {
	if txs <= 0 {
		txs = 200_000
	}
	res := &E9Result{}

	type setup struct {
		name  string
		build func(e *sim.Engine, soc *hw.SoC) (alerts *uint64, err error)
	}
	setups := []setup{
		{e9Reference, func(e *sim.Engine, soc *hw.SoC) (*uint64, error) {
			var zero uint64
			return &zero, nil
		}},
		{"counting-observer", func(e *sim.Engine, soc *hw.SoC) (*uint64, error) {
			var count uint64
			soc.Bus.Subscribe(countingObserver{n: &count})
			var zero uint64
			return &zero, nil
		}},
		{"bus-monitor", func(e *sim.Engine, soc *hw.SoC) (*uint64, error) {
			var alerts uint64
			m, err := monitor.NewBusMonitor(e, monitor.BusConfig{}, monitor.SinkFunc(func(monitor.Alert) { alerts++ }))
			if err != nil {
				return nil, err
			}
			soc.Bus.Subscribe(m)
			return &alerts, nil
		}},
		{"bus-monitor+watchpoints+rate", func(e *sim.Engine, soc *hw.SoC) (*uint64, error) {
			var alerts uint64
			m, err := monitor.NewBusMonitor(e, monitor.BusConfig{
				ProvisionedWorlds: map[string]hw.World{"app-core": hw.WorldNormal},
				Watchpoints: []monitor.Watchpoint{
					{Region: hw.RegionSlotA, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"updater"}},
					{Region: hw.RegionSlotB, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"updater"}},
				},
				RateWindow: time.Millisecond,
			}, monitor.SinkFunc(func(monitor.Alert) { alerts++ }))
			if err != nil {
				return nil, err
			}
			soc.Bus.Subscribe(m)
			return &alerts, nil
		}},
	}

	socs := make([]*hw.SoC, len(setups))
	alerts := make([]*uint64, len(setups))
	var buf [8]byte
	for i, s := range setups {
		e := sim.New(1)
		soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
		if err != nil {
			return nil, err
		}
		if alerts[i], err = s.build(e, soc); err != nil {
			return nil, err
		}
		// Warm the path (lane interning, heap growth) before measuring.
		for j := 0; j < 64; j++ {
			soc.AppCore.ReadInto(hw.AddrSRAM+hw.Addr((j*64)%65536), buf[:]) //nolint:errcheck
		}
		socs[i] = soc
	}

	nsPerTx := make([][e9Rounds]float64, len(setups))
	allocsPerTx := make([]float64, len(setups))
	for round := 0; round < e9Rounds; round++ {
		for k := range setups {
			i := (k + round) % len(setups)
			runtime.GC()
			var msBefore, msAfter runtime.MemStats
			runtime.ReadMemStats(&msBefore)
			start := time.Now()
			for j := 0; j < txs; j++ {
				socs[i].AppCore.ReadInto(hw.AddrSRAM+hw.Addr((j*64)%65536), buf[:]) //nolint:errcheck
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&msAfter)
			nsPerTx[i][round] = float64(elapsed.Nanoseconds()) / float64(txs)
			allocs := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(txs)
			if round == 0 || allocs < allocsPerTx[i] {
				allocsPerTx[i] = allocs
			}
		}
	}

	for i, s := range setups {
		row := E9Row{
			Config:      s.name,
			WallNsPerTx: slices.Min(nsPerTx[i][:]),
			AllocsPerTx: allocsPerTx[i],
			Alerts:      *alerts[i],
		}
		if s.name != e9Reference {
			var ratios [e9Rounds]float64
			for r := range ratios {
				ratios[r] = nsPerTx[i][r] / nsPerTx[0][r]
			}
			slices.Sort(ratios[:])
			row.OverheadRatio = ratios[e9Rounds/2]
		}
		res.Rows = append(res.Rows, row)
	}

	res.Table = e9Table(res.Rows, false)
	return res, nil
}

type countingObserver struct{ n *uint64 }

func (c countingObserver) ObserveTx(hw.Transaction, hw.Result) { *c.n++ }

// E10Row is one channel configuration's outcome.
type E10Row struct {
	// PeriodUS is the per-bit transmission period in microseconds.
	PeriodUS int
	// Partitioned reports whether the cache countermeasure was active.
	Partitioned bool
	// BitsSent and BitsCorrect give the decode accuracy.
	BitsSent, BitsCorrect int
	// BandwidthBps is the effective channel bandwidth in bits per
	// virtual second (correct bits only).
	BandwidthBps float64
	// Detected reports whether the timing monitor raised the
	// cross-world signature.
	Detected bool
	// DetectionLatency is virtual time from channel start to detection.
	DetectionLatency time.Duration
}

// E10Result is the covert-channel experiment.
type E10Result struct {
	Rows   []E10Row
	Table  *report.Table
	Series report.Series
}

// RunE10CovertChannel runs the prime+probe channel at several bit rates,
// with and without cache partitioning, measuring decode accuracy,
// bandwidth and detection. Each (partitioning, period) cell is an
// independent shard.
func RunE10CovertChannel(seed int64, pool *harness.Pool) (*E10Result, error) {
	res := &E10Result{Series: report.Series{Name: "covert-bandwidth", XLabel: "bit period µs", YLabel: "bits/s"}}
	periods := []int{20, 50, 100, 200}

	rows, err := harness.Map(pool, 2*len(periods), seed, func(sh harness.Shard) (*E10Row, error) {
		partitioned := sh.Index >= len(periods)
		periodUS := periods[sh.Index%len(periods)]
		return runCovertChannelOnce(sh.Seed, periodUS, partitioned)
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		res.Rows = append(res.Rows, *row)
		if !row.Partitioned {
			res.Series.Add(float64(row.PeriodUS), row.BandwidthBps)
		}
	}

	t := report.NewTable("E10 — Cache covert channel: capacity vs detection (and partitioning ablation)",
		"Bit period", "Partitioned", "Bits", "Correct", "Bandwidth b/s", "Detected", "Detection latency")
	for _, r := range res.Rows {
		lat := "-"
		if r.Detected {
			lat = r.DetectionLatency.String()
		}
		t.AddRow(
			(time.Duration(r.PeriodUS) * time.Microsecond).String(),
			yn(r.Partitioned), report.I(r.BitsSent), report.I(r.BitsCorrect),
			report.F(r.BandwidthBps), yn(r.Detected), lat)
	}
	res.Table = t
	return res, nil
}

func runCovertChannelOnce(seed int64, periodUS int, partitioned bool) (*E10Row, error) {
	e := sim.New(seed)
	soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
	if err != nil {
		return nil, err
	}
	if partitioned {
		soc.Cache.SetPartitioned(true)
	}
	te := tee.New(e, soc)
	vendor, err := deriveVendor("e10")
	if err != nil {
		return nil, err
	}
	if err := te.LoadTrustlet(bootSigned("sender", 1, vendor), vendor.Public()); err != nil {
		return nil, err
	}

	var detectedAt sim.VirtualTime
	tm, err := monitor.NewTimingMonitor(e, soc.Cache, monitor.TimingConfig{
		Window: time.Millisecond, CrossWorldPerWindow: 8,
	}, monitor.SinkFunc(func(a monitor.Alert) {
		if a.Signature == monitor.SigTimingCrossWorld && detectedAt == 0 {
			detectedAt = a.At
		}
	}))
	if err != nil {
		return nil, err
	}
	defer tm.Stop()

	const bits = 64
	const set0, set1 = 7, 23
	ways := 4
	secret := make([]int, bits)
	for i := range secret {
		secret[i] = (i * 7 % 3) % 2
	}
	decoded := make([]int, 0, bits)

	start := e.Now()
	i := 0
	var tk *sim.Ticker
	tk, err = sim.NewTicker(e, time.Duration(periodUS)*time.Microsecond, func(sim.VirtualTime) {
		// Receiver primes.
		soc.Cache.ProbeSet(set0, hw.WorldNormal, ways)
		soc.Cache.ProbeSet(set1, hw.WorldNormal, ways)
		// Sender transmits bit i.
		set := set0
		if secret[i] == 1 {
			set = set1
		}
		te.InvokeTrustlet("sender", []int{set}, ways) //nolint:errcheck
		// Receiver probes and decodes.
		m0 := soc.Cache.ProbeSet(set0, hw.WorldNormal, ways)
		m1 := soc.Cache.ProbeSet(set1, hw.WorldNormal, ways)
		bit := 0
		if m1 > m0 {
			bit = 1
		}
		decoded = append(decoded, bit)
		i++
		if i >= bits {
			tk.Stop()
		}
	})
	if err != nil {
		return nil, err
	}
	e.RunFor(time.Duration(bits+20) * time.Duration(periodUS) * time.Microsecond)

	correct := 0
	for j := range decoded {
		if decoded[j] == secret[j] {
			correct++
		}
	}
	elapsed := e.Now().Sub(start)
	row := &E10Row{
		PeriodUS:    periodUS,
		Partitioned: partitioned,
		BitsSent:    len(decoded),
		BitsCorrect: correct,
	}
	if elapsed > 0 {
		row.BandwidthBps = float64(correct) / elapsed.Seconds()
	}
	if detectedAt != 0 {
		row.Detected = true
		row.DetectionLatency = detectedAt.Sub(start)
	}
	return row, nil
}

// deriveVendor builds a deterministic vendor key for experiment rigs.
func deriveVendor(label string) (*cryptoutil.KeyPair, error) {
	return cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("exp-vendor"), label, "", 32))
}

// bootSigned builds a small signed image for experiment rigs.
func bootSigned(name string, version uint64, vendor *cryptoutil.KeyPair) *boot.Image {
	return boot.BuildSigned(name, version, []byte(name), vendor)
}
