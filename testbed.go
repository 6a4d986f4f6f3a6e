package cres

import (
	"time"

	"cres/internal/attack"
	"cres/internal/boot"
	"cres/internal/cryptoutil"
	"cres/internal/hw"
	"cres/internal/m2m"
	"cres/internal/scenario"
	"cres/internal/sim"
)

// AttackTestbed is a ready-to-attack device rig: the device a spec
// describes, on its own engine, with an operator peer on an M2M
// network, a provisioned TEE secret and a loaded trustlet — everything
// the full attack suite needs. The experiments, the cresim CLI and the
// examples build on it.
type AttackTestbed struct {
	dev  *Device
	tgt  *attack.Target
	peer *m2m.Endpoint
}

// NewAttackTestbed assembles and boots a testbed around the device
// that spec describes, on a private engine seeded from spec.Seed.
func NewAttackTestbed(spec scenario.DeviceSpec) (*AttackTestbed, error) {
	engine := sim.New(spec.Seed)
	net := m2m.NewNetwork(engine, m2m.Config{})
	dev, err := NewDevice(spec, engine, net)
	if err != nil {
		return nil, err
	}

	// Operator peer for M2M traffic.
	opKey, err := cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("operator"), "op", "", 32))
	if err != nil {
		return nil, err
	}
	peer, err := net.AddNode("operator", opKey)
	if err != nil {
		return nil, err
	}
	peer.Trust(dev.Name, dev.Endpoint.PublicKey())
	dev.Endpoint.Trust("operator", peer.PublicKey())

	// TEE secret and victim trustlet for the exfiltration scenarios.
	if err := dev.TEE.StoreSecret("m2m-key", []byte("fleet session key")); err != nil {
		return nil, err
	}
	if err := dev.TEE.LoadTrustlet(boot.BuildSigned("keymaster", 1, []byte("ta"), dev.Vendor), dev.Vendor.Public()); err != nil {
		return nil, err
	}

	if _, err := dev.Boot(); err != nil {
		return nil, err
	}
	tgt := dev.Target()
	tgt.Peer = peer
	return &AttackTestbed{dev: dev, tgt: tgt, peer: peer}, nil
}

// Device returns the device under test.
func (t *AttackTestbed) Device() *Device { return t.dev }

// AttackTarget returns the attack-injection view of the testbed.
func (t *AttackTestbed) AttackTarget() *attack.Target { return t.tgt }

// Warm runs healthy background workload for the given duration so the
// anomaly detectors learn their baselines. It returns the first error
// the operator's telemetry sends hit.
func (t *AttackTestbed) Warm(dur time.Duration) error {
	i := 0
	var buf [16]byte
	var sendErr error
	tk, err := sim.NewTicker(t.dev.Engine, 100*time.Microsecond, func(sim.VirtualTime) {
		if t.dev.SoC.AppCore.Halted() {
			return
		}
		seq := []hw.BlockID{1, 2, 3, 4}
		t.dev.SoC.AppCore.ExecBlock(seq[i%4])
		t.dev.SoC.AppCore.ReadInto(hw.AddrSRAM+hw.Addr((i*64)%8192), buf[:])
		if i%5 == 0 {
			if err := t.peer.Send(t.dev.Name, "telemetry", []byte("nominal")); err != nil && sendErr == nil {
				sendErr = err
			}
		}
		i++
	})
	if err != nil {
		return err
	}
	t.dev.RunFor(dur)
	tk.Stop()
	return sendErr
}

// AttackRun is one attack cell after its observation window: the
// device a spec describes, warmed for scenario.CampaignWarm, attacked,
// then observed for scenario.CampaignWindow — extended by a staged
// plan's horizon so its last stage runs inside the window. E3, E3b,
// E12 and cresim's scenario mode all run this one cell and read what
// they need off it.
type AttackRun struct {
	// LaunchAt is the virtual time the attack launched.
	LaunchAt sim.VirtualTime

	dev *Device
	sc  attack.Scenario
	// logBefore is the plain log's length at launch (baseline only).
	logBefore int
}

// RunAttack runs sc against a fresh testbed around the device that
// spec describes, on a private engine seeded from spec.Seed.
func RunAttack(spec scenario.DeviceSpec, sc attack.Scenario) (*AttackRun, error) {
	tb, err := NewAttackTestbed(spec)
	if err != nil {
		return nil, err
	}
	if err := tb.Warm(scenario.CampaignWarm); err != nil {
		return nil, err
	}
	r := &AttackRun{LaunchAt: tb.dev.Now(), dev: tb.dev, sc: sc}
	if tb.dev.PlainLog != nil {
		r.logBefore = tb.dev.PlainLog.Len()
	}
	if err := sc.Launch(tb.tgt); err != nil {
		return nil, err
	}
	window := scenario.CampaignWindow
	if staged, ok := sc.(attack.Staged); ok {
		window += staged.Horizon()
	}
	tb.dev.RunFor(window)
	return r, nil
}

// Device returns the attacked device.
func (r *AttackRun) Device() *Device { return r.dev }

// Detected reports whether the device saw the attack, and the virtual
// time from launch to the detection. A CRES device detects when its
// security manager raised every expected signature; the latency runs
// to the first of them. A baseline device has no monitors, so it
// detects when its plain log grew after launch, with zero latency.
func (r *AttackRun) Detected() (bool, time.Duration) {
	if r.dev.SSM == nil {
		return r.dev.PlainLog.Len() > r.logBefore, 0
	}
	var firstAt sim.VirtualTime
	for _, sig := range r.sc.ExpectedSignatures() {
		d, ok := r.dev.SSM.FirstDetection(sig)
		if !ok {
			return false, 0
		}
		if firstAt == 0 || d.At < firstAt {
			firstAt = d.At
		}
	}
	return true, firstAt.Sub(r.LaunchAt)
}
