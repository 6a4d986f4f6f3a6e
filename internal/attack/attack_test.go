package attack

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cres/internal/boot"
	"cres/internal/cryptoutil"
	"cres/internal/hw"
	"cres/internal/m2m"
	"cres/internal/monitor"
	"cres/internal/sim"
	"cres/internal/tee"
	"cres/internal/tpm"
)

// rig is a fully monitored platform (monitors wired to a collector sink,
// no SSM) for checking that each scenario produces its expected alert
// signatures.
type rig struct {
	engine *sim.Engine
	target *Target
	alerts map[string]int
}

func (r *rig) sink() monitor.Sink {
	return monitor.SinkFunc(func(a monitor.Alert) { r.alerts[a.Signature]++ })
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.New(13)
	soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{engine: e, alerts: make(map[string]int)}
	sink := r.sink()

	busMon, err := monitor.NewBusMonitor(e, monitor.BusConfig{
		ProvisionedWorlds: map[string]hw.World{
			"app-core": hw.WorldNormal, "dma0": hw.WorldNormal,
			"tee": hw.WorldSecure, "ssm-core": hw.WorldIsolated,
		},
		Watchpoints: []monitor.Watchpoint{
			{Region: hw.RegionSlotA, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"updater"}},
			{Region: hw.RegionSlotB, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"updater"}},
		},
		RateWindow: time.Millisecond,
		RateWarmup: 8,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.Bus.Subscribe(busMon)

	cfg := monitor.CFG{0: {1}, 1: {2}, 2: {3, 4}, 3: {1}, 4: nil}
	cfiMon, err := monitor.NewCFIMonitor(e, cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	soc.AppCore.SubscribeExec(cfiMon)

	if _, err := monitor.NewTimingMonitor(e, soc.Cache, monitor.TimingConfig{
		Window: time.Millisecond, CrossWorldPerWindow: 8,
	}, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.NewEnvMonitor(e, soc.EnvSensors(), monitor.EnvConfig{
		Window: time.Millisecond,
		Bands:  map[string]monitor.EnvBand{"vdd-core": {MaxDeviation: 0.05}},
	}, sink); err != nil {
		t.Fatal(err)
	}

	// TPM, vendor, TEE with a secret and a trustlet.
	tp, err := tpm.New(cryptoutil.NewDeterministicEntropy([]byte("attack-rig")))
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{0x21}, 32))
	if err != nil {
		t.Fatal(err)
	}
	te := tee.New(e, soc, tee.Config{})
	if err := te.StoreSecret("m2m-key", []byte("super secret key")); err != nil {
		t.Fatal(err)
	}
	if err := te.LoadTrustlet(boot.BuildSigned("keymaster", 1, []byte("ta"), vendor), vendor.Public()); err != nil {
		t.Fatal(err)
	}

	// Network with device endpoint, monitored, plus a peer.
	net := m2m.NewNetwork(e, m2m.Config{})
	devKey, _ := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{0x31}, 32))
	peerKey, _ := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{0x32}, 32))
	devEP, err := net.AddNode("device", devKey)
	if err != nil {
		t.Fatal(err)
	}
	peerEP, err := net.AddNode("operator", peerKey)
	if err != nil {
		t.Fatal(err)
	}
	devEP.Trust("operator", peerEP.PublicKey())
	peerEP.Trust("device", devEP.PublicKey())
	netMon, err := monitor.NewNetMonitor(e, monitor.NetConfig{AuthFailureEscalation: 2}, sink)
	if err != nil {
		t.Fatal(err)
	}
	devEP.AttachMonitor(netMon)

	oldFW := boot.BuildSigned("firmware", 1, []byte("old vulnerable release"), vendor)

	r.target = &Target{
		Engine:      e,
		SoC:         soc,
		TPM:         tp,
		TEE:         te,
		Net:         net,
		DeviceName:  "device",
		Peer:        peerEP,
		OldFirmware: oldFW,
		SecretName:  "m2m-key",
	}
	return r
}

// settle runs long enough for every bounded scenario to complete, plus
// monitor windows.
func (r *rig) settle() { r.engine.RunFor(30 * time.Millisecond) }

func TestSuiteComplete(t *testing.T) {
	suite := All()
	if len(suite) != 11 {
		t.Fatalf("suite = %d scenarios", len(suite))
	}
	seen := make(map[string]bool)
	for _, s := range suite {
		if s.Name() == "" || s.Description() == "" {
			t.Errorf("scenario %T incomplete", s)
		}
		if len(s.ExpectedSignatures()) == 0 {
			t.Errorf("scenario %s declares no expected signatures", s.Name())
		}
		if seen[s.Name()] {
			t.Errorf("duplicate scenario name %s", s.Name())
		}
		seen[s.Name()] = true
	}
}

// TestEveryScenarioDetected is the heart of the package: each scenario,
// run on a monitored platform, must raise every signature it declares.
func TestEveryScenarioDetected(t *testing.T) {
	// Warm the rate detectors with healthy traffic first in scenarios
	// that rely on anomaly (bus-flood). Each scenario gets a fresh rig.
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			r := newRig(t)
			// Healthy background traffic so anomaly baselines exist.
			warm, err := sim.NewTicker(r.engine, 100*time.Microsecond, func(sim.VirtualTime) {
				r.target.SoC.AppCore.Read(hw.AddrSRAM, 8)
				r.target.Peer.Send("device", "telemetry", []byte("nominal"))
			})
			if err != nil {
				t.Fatal(err)
			}
			r.engine.RunFor(15 * time.Millisecond)
			warm.Stop()
			baseline := make(map[string]int, len(r.alerts))
			for k, v := range r.alerts {
				baseline[k] = v
			}

			if err := sc.Launch(r.target); err != nil {
				t.Fatal(err)
			}
			r.settle()

			for _, sig := range sc.ExpectedSignatures() {
				if r.alerts[sig] <= baseline[sig] {
					t.Errorf("signature %s not raised (counts: %v)", sig, r.alerts)
				}
			}
		})
	}
}

func TestScenariosRequireComponents(t *testing.T) {
	e := sim.New(1)
	empty := &Target{Engine: e}
	for _, sc := range All() {
		if err := sc.Launch(empty); !errors.Is(err, ErrTargetIncomplete) {
			t.Errorf("%s accepted empty target: %v", sc.Name(), err)
		}
	}
}

func TestBusAttributeTamperNeedsSecret(t *testing.T) {
	r := newRig(t)
	r.target.SecretName = "ghost"
	if err := (BusAttributeTamper{}).Launch(r.target); err == nil {
		t.Fatal("missing secret accepted")
	}
}

func TestDowngradeWritesOldImageToSlot(t *testing.T) {
	r := newRig(t)
	if err := (FirmwareDowngrade{}).Launch(r.target); err != nil {
		t.Fatal(err)
	}
	r.settle()
	im, err := boot.ReadSlot(r.target.SoC.Mem, boot.SlotB)
	if err != nil {
		t.Fatalf("slot B unreadable after downgrade: %v", err)
	}
	if im.Version != 1 {
		t.Fatalf("slot B version = %d, want the old v1", im.Version)
	}
}

func TestVoltageGlitchIsTransient(t *testing.T) {
	r := newRig(t)
	if err := (VoltageGlitch{Offset: 0.4, Duration: time.Millisecond}).Launch(r.target); err != nil {
		t.Fatal(err)
	}
	if r.target.SoC.Voltage.Offset() != 0.4 {
		t.Fatal("offset not applied")
	}
	r.engine.RunFor(2 * time.Millisecond)
	if r.target.SoC.Voltage.Offset() != 0 {
		t.Fatal("glitch not withdrawn")
	}
}

func TestMITMWithdraws(t *testing.T) {
	r := newRig(t)
	if err := (M2MMITM{Messages: 3}).Launch(r.target); err != nil {
		t.Fatal(err)
	}
	r.settle()
	// After withdrawal, legitimate traffic flows again.
	before := r.target.Net.Stats().Delivered
	r.target.Peer.Send("device", "telemetry", []byte("nominal"))
	r.engine.RunFor(2 * time.Millisecond)
	if r.target.Net.Stats().Delivered != before+1 {
		t.Fatal("traffic still corrupted after MITM withdrawal")
	}
}
