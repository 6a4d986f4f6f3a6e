package scenario

import (
	"fmt"
	"math"

	"cres/internal/faultmodel"
)

// MaxVerifierOutages bounds the outage count, mirroring the plan
// layer's horizon cap: a spec past it is a typo, not a campaign.
const MaxVerifierOutages = 1000

// FaultSpec declaratively describes a deterministic fault campaign over
// a fleet: fabric-level message faults, device churn, and verifier
// outages. It compiles to a faultmodel.Plan the same way DeviceSpec and
// TopologySpec compile — validation here, pure seeded expansion there.
// How late a fault's copy arrives and when crashes and outages fall is
// faultmodel's fixed timing. The zero spec compiles to a plan that
// injects nothing.
type FaultSpec struct {
	// Drop, Duplicate and Reorder are per-delivery probabilities in
	// [0,1); see faultmodel.LinkRates.
	Drop, Duplicate, Reorder float64
	// CrashFraction is the fraction of the fleet that crashes and
	// reboots mid-campaign, in [0,1].
	CrashFraction float64
	// VerifierOutages is how many times the fleet verifier goes dark.
	VerifierOutages int
	// Seed roots every derived fault stream. Used as given.
	Seed int64
}

// rate validates one probability field.
func rate(name string, v float64, max float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("scenario: fault %s rate %v is not finite", name, v)
	}
	if v < 0 || v > max {
		return fmt.Errorf("scenario: fault %s rate %v outside [0, %v]", name, v, max)
	}
	return nil
}

// Compile validates the spec and expands it into an immutable fault
// plan.
func (s FaultSpec) Compile() (*faultmodel.Plan, error) {
	// Probabilities: drop/duplicate/reorder are per-delivery, so 1.0
	// would erase every message — cap just below, like Config.Loss.
	for _, r := range []struct {
		name string
		v    float64
		max  float64
	}{
		{"drop", s.Drop, 0.999},
		{"duplicate", s.Duplicate, 1},
		{"reorder", s.Reorder, 1},
		{"crash-fraction", s.CrashFraction, 1},
	} {
		if err := rate(r.name, r.v, r.max); err != nil {
			return nil, err
		}
	}
	if s.VerifierOutages < 0 || s.VerifierOutages > MaxVerifierOutages {
		return nil, fmt.Errorf("scenario: %d verifier outages outside [0, %d]", s.VerifierOutages, MaxVerifierOutages)
	}
	return &faultmodel.Plan{
		Seed: s.Seed,
		Link: faultmodel.LinkRates{
			Drop:      s.Drop,
			Duplicate: s.Duplicate,
			Reorder:   s.Reorder,
		},
		CrashFraction: s.CrashFraction,
		Outages:       s.VerifierOutages,
	}, nil
}
