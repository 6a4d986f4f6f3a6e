package monitor

import (
	"strings"
	"testing"
	"time"

	"cres/internal/hw"
	"cres/internal/sim"
)

// collector is a test Sink.
type collector struct {
	alerts []Alert
}

func (c *collector) HandleAlert(a Alert) { c.alerts = append(c.alerts, a) }

func (c *collector) bySignature(sig string) []Alert {
	var out []Alert
	for _, a := range c.alerts {
		if a.Signature == sig {
			out = append(out, a)
		}
	}
	return out
}

func newMonitoredSoC(t *testing.T) (*sim.Engine, *hw.SoC, *collector) {
	t.Helper()
	e := sim.New(7)
	soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	return e, soc, &collector{}
}

func TestBusMonitorSecurityFault(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewBusMonitor(e, BusConfig{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.Bus.Subscribe(m)
	// Normal-world app core pokes at secure SRAM.
	soc.AppCore.Read(hw.AddrSecureSRAM, 4)
	alerts := sink.bySignature(SigBusSecurityFault)
	if len(alerts) != 1 {
		t.Fatalf("security-fault alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Severity != Critical || alerts[0].Resource != "app-core" {
		t.Fatalf("alert = %+v", alerts[0])
	}
}

func TestBusMonitorPermFault(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewBusMonitor(e, BusConfig{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.Bus.Subscribe(m)
	soc.AppCore.Write(hw.AddrBootROM, []byte{1}) // ROM is read/exec only
	if len(sink.bySignature(SigBusPermFault)) != 1 {
		t.Fatal("perm fault not alerted")
	}
}

func TestBusMonitorWorldMismatch(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewBusMonitor(e, BusConfig{
		ProvisionedWorlds: map[string]hw.World{"app-core": hw.WorldNormal},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.Bus.Subscribe(m)
	// Hardware attack flips the NS bit in flight.
	soc.Bus.SetTamper(func(tx *hw.Transaction) {
		if tx.Initiator == "app-core" {
			tx.World = hw.WorldSecure
		}
	})
	// The access SUCCEEDS (that is the attack) but the monitor flags it.
	if _, err := soc.AppCore.Read(hw.AddrSecureSRAM, 4); err != nil {
		t.Fatalf("tampered access should succeed: %v", err)
	}
	alerts := sink.bySignature(SigBusWorldMismatch)
	if len(alerts) != 1 {
		t.Fatalf("world-mismatch alerts = %d, want 1", len(alerts))
	}
	if !strings.Contains(alerts[0].Detail, "tampering") {
		t.Fatalf("detail = %q", alerts[0].Detail)
	}
}

func TestBusMonitorWatchpoint(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewBusMonitor(e, BusConfig{
		Watchpoints: []Watchpoint{{
			Region:  hw.RegionSlotA,
			Kinds:   []hw.TxKind{hw.TxWrite},
			Allowed: []string{"updater"},
		}},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.Bus.Subscribe(m)

	// Reads of the slot are not watched.
	soc.AppCore.Read(hw.AddrSlotA, 4)
	if len(sink.bySignature(SigBusWatchpoint)) != 0 {
		t.Fatal("read triggered write watchpoint")
	}
	// Runtime write to the firmware slot by the app core: firmware
	// tampering signature.
	soc.AppCore.Write(hw.AddrSlotA, []byte{0xde, 0xad})
	alerts := sink.bySignature(SigBusWatchpoint)
	if len(alerts) != 1 {
		t.Fatalf("watchpoint alerts = %d, want 1", len(alerts))
	}
	// The allowed updater does not trigger it.
	updater := soc.Bus.Attach("updater", hw.WorldSecure)
	updater.Write(hw.AddrSlotA, []byte{0x00})
	if len(sink.bySignature(SigBusWatchpoint)) != 1 {
		t.Fatal("allowed initiator triggered watchpoint")
	}
}

func TestBusMonitorRateAnomaly(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewBusMonitor(e, BusConfig{
		RateWindow: time.Millisecond,
		RateWarmup: 8,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.Bus.Subscribe(m)

	// Healthy workload: ~20 txs/ms with mild jitter for 20 windows.
	tick, err := sim.NewTicker(e, 50*time.Microsecond, func(sim.VirtualTime) {
		soc.AppCore.Read(hw.AddrSRAM, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(20 * time.Millisecond)
	if n := len(sink.bySignature(SigBusRateAnomaly)); n != 0 {
		t.Fatalf("healthy traffic flagged %d times", n)
	}
	tick.Stop()

	// Attack: 50x the rate (resource exhaustion / scanning).
	flood, err := sim.NewTicker(e, time.Microsecond, func(sim.VirtualTime) {
		soc.AppCore.Read(hw.AddrSRAM, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(3 * time.Millisecond)
	flood.Stop()
	if len(sink.bySignature(SigBusRateAnomaly)) == 0 {
		t.Fatal("flood not flagged")
	}
	m.Stop()
}

func TestBusMonitorSnapshot(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewBusMonitor(e, BusConfig{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.Bus.Subscribe(m)
	soc.AppCore.Read(hw.AddrSRAM, 4)
	snap := m.Snapshot()
	if snap["tx_total"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if m.Name() != "bus-monitor" {
		t.Fatal("name")
	}
}

func TestBusMonitorNeedsSink(t *testing.T) {
	e := sim.New(1)
	if _, err := NewBusMonitor(e, BusConfig{}, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func testCFG() CFG {
	// 0 -> 1 -> 2 -> 3 -> 1 (loop); 2 -> 4 (exit)
	return CFG{
		0: {1},
		1: {2},
		2: {3, 4},
		3: {1},
		4: nil,
	}
}

func TestCFIMonitorAcceptsLegalPath(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewCFIMonitor(e, testCFG(), sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.AppCore.SubscribeExec(m)
	for _, b := range []hw.BlockID{1, 2, 3, 1, 2, 4} {
		soc.AppCore.ExecBlock(b)
	}
	if len(sink.alerts) != 0 {
		t.Fatalf("legal path raised %d alerts: %+v", len(sink.alerts), sink.alerts)
	}
	if m.Snapshot()["blocks_total"] != 6 {
		t.Fatal("block count")
	}
}

func TestCFIMonitorFlagsInjectedCode(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewCFIMonitor(e, testCFG(), sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.AppCore.SubscribeExec(m)
	soc.AppCore.ExecBlock(1)
	soc.AppCore.ExecBlock(999) // injected block
	alerts := sink.bySignature(SigCFIUnknownBlock)
	if len(alerts) != 1 || alerts[0].Severity != Critical {
		t.Fatalf("alerts = %+v", sink.alerts)
	}
}

func TestCFIMonitorFlagsIllegalEdge(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewCFIMonitor(e, testCFG(), sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.AppCore.SubscribeExec(m)
	soc.AppCore.ExecBlock(1)
	soc.AppCore.ExecBlock(3) // 1 -> 3 is not an edge
	alerts := sink.bySignature(SigCFIInvalidEdge)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", sink.alerts)
	}
	if m.Snapshot()["violations_total"] != 1 {
		t.Fatal("violation count")
	}
}

func TestCFIMonitorReset(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewCFIMonitor(e, testCFG(), sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.AppCore.SubscribeExec(m)
	soc.AppCore.ExecBlock(1)
	soc.AppCore.ExecBlock(2)
	// Core restarts; entry from pseudo-block 0 must be legal again.
	m.Reset("app-core")
	soc.AppCore.ExecBlock(1)
	if len(sink.alerts) != 0 {
		t.Fatalf("restart path flagged: %+v", sink.alerts)
	}
}

func TestCFIMonitorValidation(t *testing.T) {
	e := sim.New(1)
	if _, err := NewCFIMonitor(e, nil, SinkFunc(func(Alert) {})); err == nil {
		t.Fatal("empty CFG accepted")
	}
	if _, err := NewCFIMonitor(e, testCFG(), nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestTimingMonitorDetectsCovertChannel(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	_, err := NewTimingMonitor(e, soc.Cache, TimingConfig{
		Window:              time.Millisecond,
		CrossWorldPerWindow: 8,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy mixed workload: single-world accesses.
	warm, err := sim.NewTicker(e, 20*time.Microsecond, func(sim.VirtualTime) {
		soc.Cache.Access(hw.Addr(e.RNG().Intn(64)*64), hw.WorldNormal)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(5 * time.Millisecond)
	if n := len(sink.bySignature(SigTimingCrossWorld)); n != 0 {
		t.Fatalf("healthy workload flagged %d times", n)
	}
	warm.Stop()

	// Covert channel: secure world systematically evicts normal lines.
	// Prime sets with normal world, then flood from secure world.
	attack, err := sim.NewTicker(e, 10*time.Microsecond, func(sim.VirtualTime) {
		set := e.RNG().Intn(8)
		for w := 0; w < 5; w++ {
			soc.Cache.Access(hw.Addr((uint64(w+100)*64+uint64(set))*64), hw.WorldNormal)
			soc.Cache.Access(hw.Addr((uint64(w+200)*64+uint64(set))*64), hw.WorldSecure)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(3 * time.Millisecond)
	attack.Stop()
	if len(sink.bySignature(SigTimingCrossWorld)) == 0 {
		t.Fatal("covert channel not detected")
	}
}

func TestTimingMonitorValidation(t *testing.T) {
	e, soc, _ := newMonitoredSoC(t)
	if _, err := NewTimingMonitor(e, soc.Cache, TimingConfig{Window: time.Millisecond}, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
	if _, err := NewTimingMonitor(e, soc.Cache, TimingConfig{}, SinkFunc(func(Alert) {})); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestTimingMonitorSnapshot(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewTimingMonitor(e, soc.Cache, TimingConfig{Window: time.Millisecond}, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.Cache.Access(0, hw.WorldNormal)
	snap := m.Snapshot()
	if snap["cache_accesses"] != 1 || snap["miss_rate"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	m.Stop()
}

func TestEnvMonitorOutOfBand(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewEnvMonitor(e, soc.EnvSensors(), EnvConfig{
		Window: time.Millisecond,
		Bands: map[string]EnvBand{
			"vdd-core": {MaxDeviation: 0.05},
		},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(10 * time.Millisecond)
	if n := len(sink.bySignature(SigEnvOutOfBand)); n != 0 {
		t.Fatalf("healthy sensors flagged %d times", n)
	}
	// Voltage glitch attack: +0.3V.
	soc.Voltage.InjectOffset(0.3)
	e.RunFor(3 * time.Millisecond)
	alerts := sink.bySignature(SigEnvOutOfBand)
	if len(alerts) == 0 {
		t.Fatal("voltage glitch not detected")
	}
	if alerts[0].Resource != "vdd-core" || alerts[0].Severity != Critical {
		t.Fatalf("alert = %+v", alerts[0])
	}
	m.Stop()
}

func TestEnvMonitorValidation(t *testing.T) {
	e, soc, _ := newMonitoredSoC(t)
	sink := SinkFunc(func(Alert) {})
	if _, err := NewEnvMonitor(e, soc.EnvSensors(), EnvConfig{Window: time.Millisecond}, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
	if _, err := NewEnvMonitor(e, soc.EnvSensors(), EnvConfig{}, sink); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewEnvMonitor(e, nil, EnvConfig{Window: time.Millisecond}, sink); err == nil {
		t.Fatal("no sensors accepted")
	}
}

func TestEnvMonitorSnapshot(t *testing.T) {
	e, soc, sink := newMonitoredSoC(t)
	m, err := NewEnvMonitor(e, soc.EnvSensors(), EnvConfig{Window: time.Millisecond}, sink)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if _, ok := snap["sensor.vdd-core"]; !ok {
		t.Fatalf("snapshot = %v", snap)
	}
	m.Stop()
}

func TestNetMonitorAuthFailureEscalation(t *testing.T) {
	e := sim.New(1)
	sink := &collector{}
	m, err := NewNetMonitor(e, NetConfig{AuthFailureEscalation: 3}, sink)
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveAuthFailure("gateway-1", "bad signature")
	m.ObserveAuthFailure("gateway-1", "bad signature")
	alerts := sink.bySignature(SigNetAuthFailure)
	if alerts[0].Severity != Warning || alerts[1].Severity != Warning {
		t.Fatal("early failures should be warnings")
	}
	m.ObserveAuthFailure("gateway-1", "bad signature")
	alerts = sink.bySignature(SigNetAuthFailure)
	if alerts[2].Severity != Critical {
		t.Fatal("third failure should escalate to critical")
	}
}

func TestNetMonitorReplay(t *testing.T) {
	e := sim.New(1)
	sink := &collector{}
	m, err := NewNetMonitor(e, NetConfig{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveReplay("peer-x", "nonce 42 reused")
	alerts := sink.bySignature(SigNetReplay)
	if len(alerts) != 1 || alerts[0].Severity != Critical {
		t.Fatalf("alerts = %+v", sink.alerts)
	}
}

func TestNetMonitorRateAnomaly(t *testing.T) {
	e := sim.New(1)
	sink := &collector{}
	m, err := NewNetMonitor(e, NetConfig{RateWindow: time.Millisecond}, sink)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy: ~10 msgs/window through the warm-up and beyond.
	tk, err := sim.NewTicker(e, 100*time.Microsecond, func(sim.VirtualTime) {
		m.ObserveMessage("peer-a")
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor((netRateWarmup + 8) * time.Millisecond)
	tk.Stop()
	if n := len(sink.bySignature(SigNetRateAnomaly)); n != 0 {
		t.Fatalf("healthy rate flagged %d times", n)
	}
	// Flood.
	fl, err := sim.NewTicker(e, 2*time.Microsecond, func(sim.VirtualTime) {
		m.ObserveMessage("peer-a")
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(3 * time.Millisecond)
	fl.Stop()
	if len(sink.bySignature(SigNetRateAnomaly)) == 0 {
		t.Fatal("message flood not flagged")
	}
	m.Stop()
	if m.Snapshot()["messages_total"] == 0 {
		t.Fatal("snapshot")
	}
}

func TestNetMonitorNeedsSink(t *testing.T) {
	e := sim.New(1)
	if _, err := NewNetMonitor(e, NetConfig{}, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}
