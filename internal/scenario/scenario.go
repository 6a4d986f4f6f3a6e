package scenario

import (
	"fmt"
	"time"

	"cres/internal/boot"
	"cres/internal/monitor"
	"cres/internal/response"
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

// Every device's monitors sample once per MonitorWindow and its SSM
// samples evidence once per ObservationPeriod.
const (
	MonitorWindow     = time.Millisecond
	ObservationPeriod = time.Millisecond
)

// DeviceSpec declaratively describes a device's shape. The zero value
// of every field except Name selects the reference configuration: CRES
// architecture, combined detection, firmware v1 and a hardened boot
// chain. Every device has a hardened TEE, the DefaultServices set and
// the DefaultCFG control-flow graph; every CRES device builds all five
// monitors (bus, CFI, timing, env, net), and every baseline device
// reboots in the baseline package's fixed RebootDuration.
type DeviceSpec struct {
	// Name is the device name (required).
	Name string
	// Arch is "cres" (default) or "baseline".
	Arch string
	// Detection is "combined" (default), "signature-only" or
	// "anomaly-only".
	Detection string
	// Seed seeds the device's private engine when the assembler creates
	// one (ignored when an engine is shared).
	Seed int64
	// FirmwareVersion and FirmwarePayload describe the initial release
	// installed in slot A (default: v1, the reference payload).
	FirmwareVersion uint64
	FirmwarePayload []byte
	// Boot configures the boot chain (zero value = hardened).
	Boot boot.Options
}

// CompiledDevice is a validated DeviceSpec with defaults filled, ready
// for the assembler.
type CompiledDevice struct {
	// Spec is the normalized spec: every defaultable field populated.
	Spec DeviceSpec
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
	if s.FirmwareVersion == 0 {
		s.FirmwareVersion = 1
	}
	if s.FirmwarePayload == nil {
		s.FirmwarePayload = []byte("reference firmware")
	}
	return &CompiledDevice{Spec: s}, nil
}

// IsCRES reports whether the compiled device is the CRES architecture.
func (c *CompiledDevice) IsCRES() bool { return c.Spec.Arch == ArchCRES }

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
