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
