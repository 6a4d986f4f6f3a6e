package scenario

import (
	"fmt"
	"math"

	"cres/internal/cryptoutil"
	"cres/internal/fleet"
)

// FleetShare is one slice of a fleet's device mix: a device shape and
// the fraction of the fleet built to it, plus the rate at which devices
// of this shape boot tampered.
type FleetShare struct {
	// Device is the share's device shape. Its compiled firmware payload
	// becomes the share's golden measurement on the verifier allowlist.
	Device DeviceSpec
	// Fraction is the share's slice of the fleet; all fractions must sum
	// to 1.
	Fraction float64
	// TamperRate is the probability a device of this share boots an
	// implant instead of its firmware. Exclusive with the spec's
	// deterministic TamperEvery rule.
	TamperRate float64
}

// FleetSpec declaratively describes a fleet-attestation workload: how
// many devices, the mix of device shapes they are built to, and the
// tamper distribution — either per-share rates or the deterministic
// every-Nth rule the E8 experiment pins its classification tests to.
// Like the other specs, Compile validates and fills defaults without
// running anything.
type FleetSpec struct {
	// Name identifies the fleet (required).
	Name string
	// Size is the fleet's device count (required).
	Size int
	// Shares is the device mix. Nil selects a single share of the
	// reference device at fraction 1 with no tampering (combine with
	// TamperEvery for the E8 workload).
	Shares []FleetShare
	// TamperEvery > 0 tampers device i iff i % TamperEvery ==
	// TamperOffset — the deterministic rule. Exclusive with per-share
	// TamperRates.
	TamperEvery int
	// TamperOffset is the deterministic rule's residue.
	TamperOffset int
	// BatchSize bounds per-shard memory (default fleet.DefaultBatchSize);
	// ShardSize sets the per-verifier-shard device count (default
	// fleet.DefaultShardSize).
	BatchSize, ShardSize int
	// SampleK is the anomaly-sample capacity (default
	// fleet.DefaultSampleK).
	SampleK int
}

// CompiledFleet is a validated FleetSpec: the compiled mix devices plus
// the fleet engine configuration, already normalized by the engine's
// own validation. Compiling builds no engine; Engine builds one per
// run seed.
type CompiledFleet struct {
	// Spec is the normalized spec.
	Spec FleetSpec
	// Devices are the compiled mix device shapes, in share order.
	Devices []*CompiledDevice
	// Config is the fleet engine configuration compiled from the spec.
	// Seed is zero; the runner sets it per run.
	Config fleet.Config
}

// Compile validates the fleet spec, compiles its device shapes and
// lowers it to a fleet engine configuration.
func (s FleetSpec) Compile() (*CompiledFleet, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: fleet spec needs a name")
	}
	if s.Size <= 0 {
		return nil, fmt.Errorf("scenario: fleet %q: size %d, want > 0", s.Name, s.Size)
	}
	if s.Shares == nil {
		s.Shares = []FleetShare{{Device: DeviceSpec{Name: s.Name + "-ref"}, Fraction: 1}}
	}
	if len(s.Shares) == 0 {
		return nil, fmt.Errorf("scenario: fleet %q: empty device mix", s.Name)
	}
	cf := &CompiledFleet{Spec: s}
	sum := 0.0
	for i, sh := range s.Shares {
		// Reject non-finite values here with a readable message; the
		// fleet config's own validation backstops the arithmetic.
		if math.IsNaN(sh.Fraction) || math.IsInf(sh.Fraction, 0) || sh.Fraction <= 0 {
			return nil, fmt.Errorf("scenario: fleet %q share %d: fraction %v, want finite > 0", s.Name, i, sh.Fraction)
		}
		if math.IsNaN(sh.TamperRate) || math.IsInf(sh.TamperRate, 0) || sh.TamperRate < 0 || sh.TamperRate > 1 {
			return nil, fmt.Errorf("scenario: fleet %q share %d: tamper rate %v, want in [0, 1]", s.Name, i, sh.TamperRate)
		}
		sum += sh.Fraction
		cd, err := sh.Device.Compile()
		if err != nil {
			return nil, fmt.Errorf("scenario: fleet %q share %d: %w", s.Name, i, err)
		}
		cf.Devices = append(cf.Devices, cd)
		cf.Config.Shares = append(cf.Config.Shares, fleet.Share{
			Label:        cd.Spec.Name,
			Firmware:     cryptoutil.Sum(cd.Spec.FirmwarePayload),
			FirmwareDesc: fmt.Sprintf("%s firmware v%d", cd.Spec.Name, cd.Spec.FirmwareVersion),
			Fraction:     sh.Fraction,
			TamperRate:   sh.TamperRate,
		})
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("scenario: fleet %q: device-mix fractions sum to %v, want 1", s.Name, sum)
	}
	cf.Config.Size = s.Size
	cf.Config.TamperEvery = s.TamperEvery
	cf.Config.TamperOffset = s.TamperOffset
	cf.Config.BatchSize = s.BatchSize
	cf.Config.ShardSize = s.ShardSize
	cf.Config.SampleK = s.SampleK
	// Normalize through fleet.Config.Normalize, the validation fleet.New
	// runs, so a spec the engine would reject fails here, at compile
	// time. Building the engine itself waits for Engine: a store hit
	// never needs one.
	cfg, err := cf.Config.Normalize()
	if err != nil {
		return nil, fmt.Errorf("scenario: fleet %q: %w", s.Name, err)
	}
	cf.Config = cfg
	cf.Spec.Shares = s.Shares
	cf.Spec.BatchSize = cf.Config.BatchSize
	cf.Spec.ShardSize = cf.Config.ShardSize
	cf.Spec.SampleK = cf.Config.SampleK
	return cf, nil
}

// Engine builds the runnable fleet engine for one run at the given root
// seed.
func (c *CompiledFleet) Engine(seed int64) (*fleet.Engine, error) {
	cfg := c.Config
	cfg.Seed = seed
	return fleet.New(cfg)
}
