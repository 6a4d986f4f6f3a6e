package cres

import (
	"strings"
	"testing"
	"time"

	"cres/internal/attack"
	"cres/internal/boot"
	"cres/internal/core"
	"cres/internal/hw"
	"cres/internal/m2m"
	"cres/internal/monitor"
	"cres/internal/scenario"
	"cres/internal/sim"
)

func newCRESDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(scenario.DeviceSpec{Name: "dut", Seed: 17}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Boot(); err != nil {
		t.Fatal(err)
	}
	return d
}

// runHealthy generates background workload: periodic sensing loop along
// the legal CFG path plus bus traffic, warming anomaly baselines.
func runHealthy(t *testing.T, d *Device, dur time.Duration) {
	t.Helper()
	blocks := []hw.BlockID{1, 2, 3, 4}
	i := 0
	tk, err := sim.NewTicker(d.Engine, 100*time.Microsecond, func(sim.VirtualTime) {
		if d.SoC.AppCore.Halted() {
			return
		}
		d.SoC.AppCore.ExecBlock(blocks[i%len(blocks)])
		d.SoC.AppCore.Read(hw.AddrSRAM+hw.Addr((i*64)%8192), 16)
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(dur)
	tk.Stop()
}

func TestDeviceBootHealthy(t *testing.T) {
	d := newCRESDevice(t)
	rep := d.BootReport()
	if rep == nil || !rep.Healthy {
		t.Fatalf("boot report = %+v", rep)
	}
	if d.SSM.State() != core.StateHealthy {
		t.Fatalf("state = %v", d.SSM.State())
	}
	if !d.Degrader.CriticalUp() {
		t.Fatal("services not started")
	}
	// Boot is in the evidence log.
	found := false
	for _, r := range d.SSM.Log().Records() {
		if strings.Contains(r.Detail, "booted firmware v1") {
			found = true
		}
	}
	if !found {
		t.Fatal("boot not recorded as evidence")
	}
}

func TestDeviceNameRequired(t *testing.T) {
	if _, err := NewDevice(scenario.DeviceSpec{}, nil, nil); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestHealthyWorkloadStaysHealthy(t *testing.T) {
	d := newCRESDevice(t)
	runHealthy(t, d, 20*time.Millisecond)
	if d.SSM.State() != core.StateHealthy {
		t.Fatalf("healthy workload ended in state %v", d.SSM.State())
	}
	if d.SSM.ResponsesFired() != 0 {
		t.Fatalf("healthy workload triggered %d responses", d.SSM.ResponsesFired())
	}
}

func TestCodeInjectionContained(t *testing.T) {
	d := newCRESDevice(t)
	runHealthy(t, d, 15*time.Millisecond)

	if err := Launch(d, attack.CodeInjection{}); err != nil {
		t.Fatal(err)
	}
	d.RunFor(10 * time.Millisecond)

	// Detected.
	if _, ok := d.SSM.FirstDetection(monitor.SigCFIUnknownBlock); !ok {
		t.Fatal("injection not detected")
	}
	// Contained: core halted and isolated.
	if !d.SoC.AppCore.Halted() {
		t.Fatal("compromised core not halted")
	}
	if !d.Responder.IsIsolated("app-core") {
		t.Fatal("compromised core not isolated")
	}
	// Graceful degradation: critical service survives on fallback.
	if !d.Degrader.CriticalUp() {
		t.Fatal("critical service down — degradation failed")
	}
	up, _ := d.Degrader.Up("local-hmi")
	if up {
		t.Fatal("non-critical service still up on isolated resource")
	}
	if d.SSM.State() != core.StateDegraded {
		t.Fatalf("state = %v", d.SSM.State())
	}
}

func TestRecoverRestoresService(t *testing.T) {
	d := newCRESDevice(t)
	runHealthy(t, d, 15*time.Millisecond)
	Launch(d, attack.CodeInjection{})
	d.RunFor(10 * time.Millisecond)
	if !d.SoC.AppCore.Halted() {
		t.Fatal("setup: not contained")
	}

	if err := d.Recover("app-core", "firmware reflashed by operator"); err != nil {
		t.Fatal(err)
	}
	if d.SoC.AppCore.Halted() || d.Responder.IsIsolated("app-core") {
		t.Fatal("not restored")
	}
	if d.SSM.State() != core.StateHealthy {
		t.Fatalf("state = %v", d.SSM.State())
	}
	up, _ := d.Degrader.Up("local-hmi")
	if !up {
		t.Fatal("services not restored")
	}
	// The full detect->respond->recover arc is in the evidence log.
	var sawResponse, sawRecovery bool
	for _, r := range d.SSM.Log().Records() {
		if strings.Contains(r.Detail, "contain-on-cfi") {
			sawResponse = true
		}
		if strings.Contains(r.Detail, "recovered") {
			sawRecovery = true
		}
	}
	if !sawResponse || !sawRecovery {
		t.Fatalf("evidence arc incomplete: response=%v recovery=%v", sawResponse, sawRecovery)
	}
}

func TestSecureProbeIsolation(t *testing.T) {
	d := newCRESDevice(t)
	runHealthy(t, d, 15*time.Millisecond)
	Launch(d, attack.SecureProbe{})
	d.RunFor(10 * time.Millisecond)
	if !d.Responder.IsIsolated("app-core") {
		t.Fatal("probing core not isolated")
	}
}

func TestCovertChannelClosedByPartitioning(t *testing.T) {
	d := newCRESDevice(t)
	// Install the victim trustlet and secret.
	if err := d.TEE.StoreSecret("m2m-key", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	im := boot.BuildSigned("keymaster", 1, []byte("ta"), d.Vendor)
	if err := d.TEE.LoadTrustlet(im, d.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	runHealthy(t, d, 15*time.Millisecond)

	if err := Launch(d, attack.CacheCovertChannel{Trustlet: "keymaster", Bits: 64}); err != nil {
		t.Fatal(err)
	}
	d.RunFor(10 * time.Millisecond)
	if _, ok := d.SSM.FirstDetection(monitor.SigTimingCrossWorld); !ok {
		t.Fatal("covert channel not detected")
	}
	if !d.SoC.Cache.Partitioned() {
		t.Fatal("cache not partitioned in response")
	}
}

func TestEnvGlitchLocksActuator(t *testing.T) {
	d := newCRESDevice(t)
	breaker := hw.NewActuator("breaker-1", 0)
	d.AddActuator(breaker)
	runHealthy(t, d, 15*time.Millisecond)

	Launch(d, attack.VoltageGlitch{Offset: 0.5, Duration: 3 * time.Millisecond})
	d.RunFor(5 * time.Millisecond)
	if !breaker.Locked() {
		t.Fatal("actuator not locked during physical tamper")
	}
}

func TestBaselineDeviceHasNoDetection(t *testing.T) {
	d, err := NewDevice(scenario.DeviceSpec{Name: "legacy", Arch: scenario.ArchBaseline, Seed: 17}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Boot(); err != nil {
		t.Fatal(err)
	}
	if d.SSM != nil || d.Responder != nil || d.BusMon != nil {
		t.Fatal("baseline device has CRES components")
	}
	if d.Baseline == nil || d.PlainLog == nil {
		t.Fatal("baseline components missing")
	}
	// Attacks run with impunity.
	if err := Launch(d, attack.SecureProbe{}); err != nil {
		t.Fatal(err)
	}
	d.RunFor(10 * time.Millisecond)
	// Nothing isolated anything; services unaffected; no record beyond boot.
	if !d.Degrader.CriticalUp() {
		t.Fatal("baseline services down without reboot")
	}
	if d.ForensicReport(0, d.Now()) != nil {
		t.Fatal("baseline produced a forensic report")
	}
}

func TestBaselineRebootDropsAllServices(t *testing.T) {
	d, err := NewDevice(scenario.DeviceSpec{
		Name: "legacy", Arch: scenario.ArchBaseline, Seed: 1, RebootTime: 100 * time.Millisecond,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Boot()
	if err := d.Baseline.Reboot("operator noticed something odd", nil); err != nil {
		t.Fatal(err)
	}
	if d.Degrader.CriticalUp() {
		t.Fatal("critical service survived baseline reboot")
	}
	d.RunFor(150 * time.Millisecond)
	if !d.Degrader.CriticalUp() {
		t.Fatal("services not back after reboot")
	}
}

func TestForensicReportTellsTheStory(t *testing.T) {
	d := newCRESDevice(t)
	runHealthy(t, d, 10*time.Millisecond)
	attackStart := d.Now()
	Launch(d, attack.FirmwareTamper{})
	d.RunFor(10 * time.Millisecond)

	rep := d.ForensicReport(attackStart, d.Now())
	if rep == nil {
		t.Fatal("no report")
	}
	if !rep.ChainIntact {
		t.Fatal("chain broken")
	}
	if rep.Alerts == 0 || rep.Responses == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Continuity < 0.9 {
		t.Fatalf("continuity = %f", rep.Continuity)
	}
	if rep.AnchorsTotal == 0 || rep.AnchorsValid != rep.AnchorsTotal {
		t.Fatalf("anchors %d/%d", rep.AnchorsValid, rep.AnchorsTotal)
	}
}

func TestTwoDevicesOnSharedNetwork(t *testing.T) {
	engine := sim.New(23)
	net := m2m.NewNetwork(engine, m2m.Config{})
	a, err := NewDevice(scenario.DeviceSpec{Name: "dev-a"}, engine, net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(scenario.DeviceSpec{Name: "dev-b"}, engine, net)
	if err != nil {
		t.Fatal(err)
	}
	a.Boot()
	b.Boot()
	a.Endpoint.Trust("dev-b", b.Endpoint.PublicKey())
	b.Endpoint.Trust("dev-a", a.Endpoint.PublicKey())
	var got int
	b.Endpoint.Handle("ping", func(m2m.Message) { got++ })
	if err := a.Endpoint.Send("dev-b", "ping", nil); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(5 * time.Millisecond)
	if got != 1 {
		t.Fatalf("got = %d", got)
	}
}

// TestNewDeviceSpec pins the declarative assembly path: a spec builds
// the device it describes, and an invalid spec fails at compile time,
// not mid-assembly.
func TestNewDeviceSpec(t *testing.T) {
	dev, err := NewDevice(scenario.DeviceSpec{Name: "spec-dev", Arch: scenario.ArchBaseline, Seed: 5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Arch != scenario.ArchBaseline || dev.SSM != nil || dev.Baseline == nil {
		t.Fatal("spec-built baseline device mis-assembled")
	}
	if _, err := NewDevice(scenario.DeviceSpec{Name: "d", Arch: "riscv"}, nil, nil); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestWithMonitorsSubset checks the monitor set is honored: a device
// restricted to bus+env gets no CFI, timing or network monitor.
func TestWithMonitorsSubset(t *testing.T) {
	dev, err := NewDevice(scenario.DeviceSpec{
		Name: "subset", Seed: 1, Monitors: []string{scenario.MonitorBus, scenario.MonitorEnv},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dev.BusMon == nil || dev.EnvMon == nil {
		t.Fatal("requested monitors missing")
	}
	if dev.CFIMon != nil || dev.TimingMon != nil || dev.NetMon != nil {
		t.Fatal("unrequested monitors built")
	}
	if _, err := NewDevice(scenario.DeviceSpec{Name: "bad", Monitors: []string{"seismic"}}, nil, nil); err == nil {
		t.Fatal("unknown monitor name accepted")
	}
}

// bootBuild creates a vendor-signed image for tests.
func bootBuild(d *Device, name string, version uint64) *boot.Image {
	return boot.BuildSigned(name, version, []byte(name), d.Vendor)
}
