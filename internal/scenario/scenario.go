package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"cres/internal/boot"
	"cres/internal/monitor"
	"cres/internal/response"
	"cres/internal/tee"
)

// Architecture names a DeviceSpec may select.
const (
	ArchCRES     = "cres"
	ArchBaseline = "baseline"
)

// Detection mode names a DeviceSpec may select — the E3b ablation's
// method families.
const (
	DetectCombined      = "combined"
	DetectSignatureOnly = "signature-only"
	DetectAnomalyOnly   = "anomaly-only"
)

// Monitor names a DeviceSpec may enable. An empty Monitors list enables
// all of them — the paper's full CRES architecture.
const (
	MonitorBus    = "bus"
	MonitorCFI    = "cfi"
	MonitorTiming = "timing"
	MonitorEnv    = "env"
	MonitorNet    = "net"
)

// monitorNames lists every known monitor in presentation order. A
// compiled device keeps its enabled monitors as a bitmask over it.
var monitorNames = [...]string{MonitorBus, MonitorCFI, MonitorTiming, MonitorEnv, MonitorNet}

// MonitorNames returns every known monitor name in presentation order.
func MonitorNames() []string { return slices.Clone(monitorNames[:]) }

// monitorBit returns a monitor's bit in the enabled-monitor mask, or 0
// for an unknown name.
func monitorBit(name string) uint8 {
	for i, m := range monitorNames {
		if m == name {
			return 1 << i
		}
	}
	return 0
}

// DefaultServices returns the reference service set of a critical-
// infrastructure field device: one critical protection function with a
// redundant controller, and non-critical telemetry/management functions.
func DefaultServices() []response.Service {
	return []response.Service{
		{Name: "protection-relay", Critical: true, Resources: []string{"app-core"}, Fallbacks: []string{"backup-controller"}},
		{Name: "telemetry", Resources: []string{"app-core", "m2m-link"}},
		{Name: "remote-management", Resources: []string{"m2m-link"}},
		{Name: "local-hmi", Resources: []string{"app-core"}},
	}
}

// DefaultCFG returns the reference application control-flow graph used
// by the examples and experiments: a sense -> decide -> act loop with an
// idle path.
func DefaultCFG() monitor.CFG {
	return monitor.CFG{
		0: {1},    // entry
		1: {2},    // sense
		2: {3, 5}, // decide -> act or idle
		3: {4},    // act
		4: {1},    // loop
		5: {1, 6}, // idle -> loop or shutdown
		6: nil,    // shutdown
	}
}

// DeviceSpec declaratively describes a device's shape. The zero value
// of every field except Name selects the reference configuration: CRES
// architecture, combined detection, every monitor, firmware v1,
// hardened boot chain and TEE, the default service set and CFG, 1ms
// monitor and observation windows.
type DeviceSpec struct {
	// Name is the device name (required).
	Name string
	// Arch is "cres" (default) or "baseline".
	Arch string
	// Detection is "combined" (default), "signature-only" or
	// "anomaly-only".
	Detection string
	// Monitors lists the monitors to build on a CRES device; empty
	// means all of them. See MonitorNames.
	Monitors []string
	// Seed seeds the device's private engine when the assembler creates
	// one (ignored when an engine is shared).
	Seed int64
	// FirmwareVersion and FirmwarePayload describe the initial release
	// installed in slot A (default: v1, the reference payload).
	FirmwareVersion uint64
	FirmwarePayload []byte
	// Boot configures the boot chain (zero value = hardened).
	Boot boot.Options
	// TEE configures the TEE (zero value = hardened).
	TEE tee.Config
	// Services declares the device's services for graceful degradation
	// (nil = DefaultServices).
	Services []response.Service
	// CFG is the application's control-flow graph for the CFI monitor
	// (nil = DefaultCFG).
	CFG monitor.CFG
	// MonitorWindow is the monitors' sampling window (default 1ms).
	MonitorWindow time.Duration
	// ObservationPeriod is the SSM evidence-sampling period (default
	// 1ms).
	ObservationPeriod time.Duration
	// RebootTime is the baseline architecture's reboot outage duration.
	RebootTime time.Duration
}

// CompiledDevice is a validated DeviceSpec with defaults filled, ready
// for the assembler.
type CompiledDevice struct {
	// Spec is the normalized spec: every defaultable field populated.
	Spec DeviceSpec

	monitors uint8 // enabled monitors, bit i for monitorNames[i]
}

// Compile validates the spec and fills defaults.
func (s DeviceSpec) Compile() (*CompiledDevice, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: device spec needs a name")
	}
	switch s.Arch {
	case "":
		s.Arch = ArchCRES
	case ArchCRES, ArchBaseline:
	default:
		return nil, fmt.Errorf("scenario: device %q: unknown architecture %q (want %q or %q)", s.Name, s.Arch, ArchCRES, ArchBaseline)
	}
	switch s.Detection {
	case "":
		s.Detection = DetectCombined
	case DetectCombined, DetectSignatureOnly, DetectAnomalyOnly:
	default:
		return nil, fmt.Errorf("scenario: device %q: unknown detection mode %q", s.Name, s.Detection)
	}
	monitors := uint8(1)<<len(monitorNames) - 1 // an empty list enables every monitor
	if len(s.Monitors) > 0 {
		monitors = 0
		for _, m := range s.Monitors {
			bit := monitorBit(m)
			if bit == 0 {
				return nil, fmt.Errorf("scenario: device %q: unknown monitor %q (known: %s)", s.Name, m, strings.Join(monitorNames[:], ", "))
			}
			if monitors&bit != 0 {
				return nil, fmt.Errorf("scenario: device %q: monitor %q listed twice", s.Name, m)
			}
			monitors |= bit
		}
	}
	if s.FirmwareVersion == 0 {
		s.FirmwareVersion = 1
	}
	if s.FirmwarePayload == nil {
		s.FirmwarePayload = []byte("reference firmware")
	}
	if s.Services == nil {
		s.Services = DefaultServices()
	}
	if s.CFG == nil {
		s.CFG = DefaultCFG()
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"monitor window", s.MonitorWindow}, {"observation period", s.ObservationPeriod}, {"reboot time", s.RebootTime}} {
		if d.v < 0 {
			return nil, fmt.Errorf("scenario: device %q: negative %s %v", s.Name, d.name, d.v)
		}
	}
	if s.MonitorWindow == 0 {
		s.MonitorWindow = time.Millisecond
	}
	if s.ObservationPeriod == 0 {
		s.ObservationPeriod = time.Millisecond
	}
	return &CompiledDevice{Spec: s, monitors: monitors}, nil
}

// IsCRES reports whether the compiled device is the CRES architecture.
func (c *CompiledDevice) IsCRES() bool { return c.Spec.Arch == ArchCRES }

// MonitorOn reports whether the named monitor is enabled. Unknown names
// are off (Compile rejects them in specs).
func (c *CompiledDevice) MonitorOn(name string) bool { return c.monitors&monitorBit(name) != 0 }

// SignatureDetection reports whether the compiled detection mode runs
// the signature-based method family.
func (c *CompiledDevice) SignatureDetection() bool {
	return c.Spec.Detection == DetectCombined || c.Spec.Detection == DetectSignatureOnly
}

// AnomalyDetection reports whether the compiled detection mode runs the
// statistical method family.
func (c *CompiledDevice) AnomalyDetection() bool {
	return c.Spec.Detection == DetectCombined || c.Spec.Detection == DetectAnomalyOnly
}
