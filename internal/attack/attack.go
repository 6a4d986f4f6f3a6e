package attack

import (
	"errors"
	"fmt"
	"time"

	"cres/internal/boot"
	"cres/internal/hw"
	"cres/internal/m2m"
	"cres/internal/sim"
	"cres/internal/tee"
	"cres/internal/tpm"
)

// Target is the device under attack. Scenarios use only the fields they
// need and fail with ErrTargetIncomplete when a required one is nil.
type Target struct {
	Engine *sim.Engine
	SoC    *hw.SoC
	TPM    *tpm.TPM
	TEE    *tee.TEE
	Net    *m2m.Network
	// DeviceName is the device's m2m endpoint name (for MITM targeting).
	DeviceName string
	// Peer is a legitimate remote endpoint whose traffic the MITM
	// scenario corrupts.
	Peer *m2m.Endpoint
	// OldFirmware is a genuine, vendor-signed but outdated (vulnerable)
	// release the attacker kept for the downgrade attack.
	OldFirmware *boot.Image
	// SecretName is a TEE secret the exfiltration scenarios target.
	SecretName string
}

// ErrTargetIncomplete reports a scenario run against a target missing a
// required component.
var ErrTargetIncomplete = errors.New("attack: target missing required component")

// Scenario is one injectable attack.
type Scenario interface {
	// Name is the stable scenario identifier.
	Name() string
	// Description explains the attack and its real-world citation.
	Description() string
	// ExpectedSignatures lists alert signatures a CRES device should
	// raise when the attack runs.
	ExpectedSignatures() []string
	// Launch schedules the malicious activity starting now. The attack
	// is bounded: it stops by itself.
	Launch(tgt *Target) error
}

// repeat schedules fn every period for count iterations.
func repeat(e *sim.Engine, period time.Duration, count int, fn func(i int)) {
	i := 0
	var tick *sim.Ticker
	tick, err := sim.NewTicker(e, period, func(sim.VirtualTime) {
		fn(i)
		i++
		if i >= count {
			tick.Stop()
		}
	})
	if err != nil {
		// period and fn are always valid here; a failure is a bug.
		panic(err)
	}
}

// SecureProbe reads secure memory from the normal world — the
// reconnaissance phase of a privilege escalation, caught by the bus
// security check and reported by the bus monitor.
type SecureProbe struct{}

// Name implements Scenario.
func (SecureProbe) Name() string { return "secure-probe" }

// Description implements Scenario.
func (SecureProbe) Description() string {
	return "normal-world application probes secure SRAM for secrets (privilege escalation reconnaissance)"
}

// ExpectedSignatures implements Scenario.
func (SecureProbe) ExpectedSignatures() []string { return []string{"bus.security-fault"} }

// Launch implements Scenario.
func (SecureProbe) Launch(tgt *Target) error {
	if tgt.SoC == nil {
		return fmt.Errorf("%w: SoC", ErrTargetIncomplete)
	}
	var buf [16]byte
	repeat(tgt.Engine, 50*time.Microsecond, 40, func(i int) {
		tgt.SoC.AppCore.ReadInto(hw.AddrSecureSRAM+hw.Addr(i*64), buf[:]) //nolint:errcheck // faults are the point
	})
	return nil
}

// FirmwareTamper writes attacker bytes into the active firmware slot at
// runtime — persistent implant installation, caught by the flash
// watchpoint.
type FirmwareTamper struct{}

// Name implements Scenario.
func (FirmwareTamper) Name() string { return "firmware-tamper" }

// Description implements Scenario.
func (FirmwareTamper) Description() string {
	return "compromised application overwrites the firmware slot to persist an implant"
}

// ExpectedSignatures implements Scenario.
func (FirmwareTamper) ExpectedSignatures() []string { return []string{"bus.watchpoint"} }

// Launch implements Scenario.
func (FirmwareTamper) Launch(tgt *Target) error {
	if tgt.SoC == nil {
		return fmt.Errorf("%w: SoC", ErrTargetIncomplete)
	}
	repeat(tgt.Engine, 100*time.Microsecond, 20, func(i int) {
		tgt.SoC.AppCore.Write(hw.AddrSlotA+hw.Addr(i*128), []byte{0xde, 0xad, 0xbe, 0xef}) //nolint:errcheck
	})
	return nil
}

// FirmwareDowngrade stages a genuine old (vulnerable) release in SRAM
// and DMA-copies it into the inactive slot — the rollback attack of
// Section IV (Yue et al.), caught at runtime by the flash watchpoint and
// at the next boot by anti-rollback (experiment E7).
type FirmwareDowngrade struct{}

// Name implements Scenario.
func (FirmwareDowngrade) Name() string { return "firmware-downgrade" }

// Description implements Scenario.
func (FirmwareDowngrade) Description() string {
	return "attacker installs a genuine but outdated vulnerable firmware release (downgrade/rollback attack)"
}

// ExpectedSignatures implements Scenario.
func (FirmwareDowngrade) ExpectedSignatures() []string { return []string{"bus.watchpoint"} }

// Launch implements Scenario.
func (FirmwareDowngrade) Launch(tgt *Target) error {
	if tgt.SoC == nil || tgt.OldFirmware == nil {
		return fmt.Errorf("%w: SoC and OldFirmware", ErrTargetIncomplete)
	}
	blob := tgt.OldFirmware.Marshal()
	if err := tgt.SoC.Mem.Poke(hw.AddrSRAM+0x8000, blob); err != nil {
		return fmt.Errorf("attack: stage old firmware: %w", err)
	}
	tgt.SoC.DMA.Transfer(hw.AddrSRAM+0x8000, hw.AddrSlotB, uint64(len(blob)), nil)
	return nil
}

// BusAttributeTamper is the Benhani et al. FPGA attack: malicious logic
// flips the NS bit so the normal world reads TEE secrets. The accesses
// SUCCEED; only the bus monitor's provisioned-world cross-check sees the
// mismatch.
type BusAttributeTamper struct{}

// Name implements Scenario.
func (BusAttributeTamper) Name() string { return "bus-attribute-tamper" }

// Description implements Scenario.
func (BusAttributeTamper) Description() string {
	return "hardware-level manipulation of bus security attributes grants normal world secure access (Benhani et al.)"
}

// ExpectedSignatures implements Scenario.
func (BusAttributeTamper) ExpectedSignatures() []string { return []string{"bus.world-mismatch"} }

// Launch implements Scenario.
func (BusAttributeTamper) Launch(tgt *Target) error {
	if tgt.SoC == nil || tgt.TEE == nil || tgt.SecretName == "" {
		return fmt.Errorf("%w: SoC, TEE and SecretName", ErrTargetIncomplete)
	}
	addr, size, ok := tgt.TEE.SecretAddr(tgt.SecretName)
	if !ok {
		return fmt.Errorf("attack: secret %q not present", tgt.SecretName)
	}
	tgt.SoC.Bus.SetTamper(func(tx *hw.Transaction) {
		if tx.Initiator == tgt.SoC.AppCore.Name() {
			tx.World = hw.WorldSecure
		}
	})
	buf := make([]byte, size)
	repeat(tgt.Engine, 100*time.Microsecond, 10, func(i int) {
		tgt.SoC.AppCore.ReadInto(addr, buf) //nolint:errcheck
		if i == 9 {
			tgt.SoC.Bus.SetTamper(nil) // attacker withdraws
		}
	})
	return nil
}

// CodeInjection executes basic blocks outside the program's control-flow
// graph — injected shellcode, caught by the CFI monitor.
type CodeInjection struct{}

// Name implements Scenario.
func (CodeInjection) Name() string { return "code-injection" }

// Description implements Scenario.
func (CodeInjection) Description() string {
	return "software vulnerability leads to execution of injected code blocks outside the CFG"
}

// ExpectedSignatures implements Scenario.
func (CodeInjection) ExpectedSignatures() []string { return []string{"cfi.unknown-block"} }

// Launch implements Scenario.
func (CodeInjection) Launch(tgt *Target) error {
	if tgt.SoC == nil {
		return fmt.Errorf("%w: SoC", ErrTargetIncomplete)
	}
	repeat(tgt.Engine, 20*time.Microsecond, 15, func(i int) {
		tgt.SoC.AppCore.ExecBlock(hw.BlockID(0xdead0 + uint32(i))) //nolint:errcheck
	})
	return nil
}

// ControlFlowHijack takes illegal edges between legitimate blocks —
// return-oriented programming, caught by the CFI monitor.
type ControlFlowHijack struct{}

// Name implements Scenario.
func (ControlFlowHijack) Name() string { return "control-flow-hijack" }

// Description implements Scenario.
func (ControlFlowHijack) Description() string {
	return "ROP-style control flow hijack chaining legitimate blocks along illegal edges"
}

// ExpectedSignatures implements Scenario.
func (ControlFlowHijack) ExpectedSignatures() []string { return []string{"cfi.invalid-edge"} }

// Launch implements Scenario.
func (ControlFlowHijack) Launch(tgt *Target) error {
	if tgt.SoC == nil {
		return fmt.Errorf("%w: SoC", ErrTargetIncomplete)
	}
	// Blocks 1 and 4 are legitimate blocks of the reference program,
	// whose control-flow graph has no 1->4 edge.
	blocks := [...]hw.BlockID{1, 4}
	repeat(tgt.Engine, 20*time.Microsecond, 15, func(i int) {
		tgt.SoC.AppCore.ExecBlock(blocks[i%len(blocks)]) //nolint:errcheck
	})
	return nil
}

// CacheCovertChannel exfiltrates a TEE secret bit-by-bit through the
// shared cache: a compromised trustlet touches one of two cache sets per
// bit; the normal-world receiver primes and probes. This is the
// Spectre/Meltdown-class shared-microarchitecture channel of Section IV
// in its architecturally honest form.
type CacheCovertChannel struct{}

// The channel's sender is covertTrustlet, the trustlet the attack
// testbed loads into the TEE, and it transmits covertBits secret bits.
const (
	covertTrustlet = "keymaster"
	covertBits     = 32
)

// Name implements Scenario.
func (CacheCovertChannel) Name() string { return "cache-covert-channel" }

// Description implements Scenario.
func (CacheCovertChannel) Description() string {
	return "secret exfiltration over shared-cache prime+probe covert channel (microarchitectural side channel)"
}

// ExpectedSignatures implements Scenario.
func (CacheCovertChannel) ExpectedSignatures() []string {
	return []string{"timing.cross-world-eviction"}
}

// Launch implements Scenario.
func (CacheCovertChannel) Launch(tgt *Target) error {
	if tgt.SoC == nil || tgt.TEE == nil {
		return fmt.Errorf("%w: SoC and TEE", ErrTargetIncomplete)
	}
	const set0, set1 = 11, 29
	ways := 4
	repeat(tgt.Engine, 50*time.Microsecond, covertBits, func(i int) {
		// Receiver primes both sets.
		tgt.SoC.Cache.ProbeSet(set0, hw.WorldNormal, ways)
		tgt.SoC.Cache.ProbeSet(set1, hw.WorldNormal, ways)
		// Sender transmits the i-th secret bit.
		bit := (i / 3) % 2 // deterministic pseudo-secret
		set := set0
		if bit == 1 {
			set = set1
		}
		tgt.TEE.InvokeTrustlet(covertTrustlet, []int{set}, ways) //nolint:errcheck
		// Receiver probes; misses on one set reveal the bit.
		tgt.SoC.Cache.ProbeSet(set0, hw.WorldNormal, ways)
		tgt.SoC.Cache.ProbeSet(set1, hw.WorldNormal, ways)
	})
	return nil
}

// VoltageGlitch injects a supply-voltage disturbance — fault-injection
// preparation, caught by the environmental monitor.
type VoltageGlitch struct{}

// The glitch offsets the supply by glitchOffset volts for
// glitchDuration.
const (
	glitchOffset   = 0.4
	glitchDuration = 2 * time.Millisecond
)

// Name implements Scenario.
func (VoltageGlitch) Name() string { return "voltage-glitch" }

// Description implements Scenario.
func (VoltageGlitch) Description() string {
	return "physical voltage glitching to corrupt execution (fault injection / anti-tamper bypass)"
}

// ExpectedSignatures implements Scenario.
func (VoltageGlitch) ExpectedSignatures() []string { return []string{"env.out-of-band"} }

// Launch implements Scenario.
func (VoltageGlitch) Launch(tgt *Target) error {
	if tgt.SoC == nil {
		return fmt.Errorf("%w: SoC", ErrTargetIncomplete)
	}
	tgt.SoC.Voltage.InjectOffset(glitchOffset)
	tgt.Engine.MustSchedule(glitchDuration, func() { tgt.SoC.Voltage.InjectOffset(0) })
	return nil
}

// M2MMITM interposes on the network and rewrites peer telemetry into
// actuation commands — the man-in-the-middle threat of Section III-4,
// caught by message authentication and the network monitor.
type M2MMITM struct {
	// Messages is how many peer messages to corrupt (default 5).
	Messages int
}

// Name implements Scenario.
func (M2MMITM) Name() string { return "m2m-mitm" }

// Description implements Scenario.
func (M2MMITM) Description() string {
	return "man-in-the-middle rewrites M2M messages to inject forged commands"
}

// ExpectedSignatures implements Scenario.
func (M2MMITM) ExpectedSignatures() []string { return []string{"net.auth-failure"} }

// Launch implements Scenario.
func (m M2MMITM) Launch(tgt *Target) error {
	if tgt.Net == nil || tgt.Peer == nil || tgt.DeviceName == "" {
		return fmt.Errorf("%w: Net, Peer and DeviceName", ErrTargetIncomplete)
	}
	count := m.Messages
	if count == 0 {
		count = 5
	}
	tgt.Net.SetMITM(func(msg m2m.Message) *m2m.Message {
		if msg.To == tgt.DeviceName {
			msg.Payload = []byte("OPEN ALL BREAKERS")
		}
		return &msg
	})
	// The peer keeps talking; its messages get corrupted in flight.
	repeat(tgt.Engine, 200*time.Microsecond, count, func(i int) {
		tgt.Peer.Send(tgt.DeviceName, "telemetry", []byte("status nominal")) //nolint:errcheck
		if i == count-1 {
			// Attacker withdraws after the burst.
			tgt.Engine.MustSchedule(time.Millisecond, func() { tgt.Net.SetMITM(nil) })
		}
	})
	return nil
}

// BusFlood saturates the interconnect from the application core —
// resource exhaustion / denial of service, caught by rate anomaly
// detection.
type BusFlood struct{}

// floodTransactions is the flood's volume, one read per microsecond.
const floodTransactions = 3000

// Name implements Scenario.
func (BusFlood) Name() string { return "bus-flood" }

// Description implements Scenario.
func (BusFlood) Description() string {
	return "bus transaction flood starves other initiators (denial of service)"
}

// ExpectedSignatures implements Scenario.
func (BusFlood) ExpectedSignatures() []string { return []string{"bus.rate.anomaly"} }

// Launch implements Scenario.
func (BusFlood) Launch(tgt *Target) error {
	if tgt.SoC == nil {
		return fmt.Errorf("%w: SoC", ErrTargetIncomplete)
	}
	var buf [8]byte
	repeat(tgt.Engine, time.Microsecond, floodTransactions, func(i int) {
		tgt.SoC.AppCore.ReadInto(hw.AddrSRAM+hw.Addr((i*64)%4096), buf[:]) //nolint:errcheck
	})
	return nil
}

// LogWipe attempts to destroy the evidence trail — the post-compromise
// cleanup the paper says existing systems cannot even witness. Against
// CRES the evidence store lives in the isolated world, so the write
// itself faults and becomes evidence.
type LogWipe struct{}

// Name implements Scenario.
func (LogWipe) Name() string { return "log-wipe" }

// Description implements Scenario.
func (LogWipe) Description() string {
	return "post-compromise erasure of device logs to destroy breach evidence"
}

// ExpectedSignatures implements Scenario.
func (LogWipe) ExpectedSignatures() []string { return []string{"bus.security-fault"} }

// Launch implements Scenario.
func (LogWipe) Launch(tgt *Target) error {
	if tgt.SoC == nil {
		return fmt.Errorf("%w: SoC", ErrTargetIncomplete)
	}
	repeat(tgt.Engine, 50*time.Microsecond, 10, func(i int) {
		tgt.SoC.AppCore.Write(hw.AddrEvidence+hw.Addr(i*256), make([]byte, 256)) //nolint:errcheck
	})
	return nil
}
