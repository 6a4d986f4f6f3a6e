package attack

import (
	"errors"
	"fmt"
	"time"

	"cres/internal/sim"
)

// Fleet is the worm's view of a networked fleet: an indexed set of
// devices wired by an undirected topology. The swarm rig in the root
// package implements it over a shared engine and one M2M network; the
// worm itself stays agnostic of how links are realised, so quarantine
// gates, lossy links or future transports all plug in behind LinkUp.
type Fleet interface {
	// Size is the number of devices.
	Size() int
	// Neighbors returns device i's neighbours in deterministic order.
	Neighbors(i int) []int
	// Target returns the attack-injection view of device i.
	Target(i int) *Target
	// LinkUp reports whether the link between two adjacent devices
	// currently carries traffic. A quarantined link blocks propagation.
	LinkUp(i, j int) bool
}

// FleetObserver receives worm bookkeeping callbacks. All methods are
// optional (implement the interface with no-ops for the ones you don't
// need); they fire in deterministic event order on the fleet's engine.
type FleetObserver interface {
	// Infected fires when the worm's payload launches on a device.
	// hop is the infection depth (0 for patient zero).
	Infected(device, hop int)
	// Blocked fires when a propagation attempt from an infected device
	// to a susceptible neighbour finds the link down.
	Blocked(from, to int)
}

// DefaultWormDwell is the infection-to-propagation delay when
// Worm.Dwell is unset.
const DefaultWormDwell = 2 * time.Millisecond

// ErrWormFleet reports a worm launched against an unusable fleet.
var ErrWormFleet = errors.New("attack: worm fleet invalid")

// Worm is the propagating form of a staged intrusion: a payload
// scenario that, on successful compromise of one device, schedules its
// first stage on each susceptible neighbour after a configurable
// dwell — the machine-to-machine worm of the paper's next-generation
// critical-infrastructure threat model, where interconnection itself
// becomes the attack surface.
//
// A worm launches through LaunchFleet, which needs the topology view
// only a multi-device rig can provide.
//
// Propagation is checked, per link, at the moment the dwell expires:
// if the link to a neighbour is quarantined by then, that propagation
// attempt is blocked for good — the race between the worm's dwell and
// the fleet's cooperative response is exactly what experiment E13
// measures.
type Worm struct {
	// PlanName is the worm's stable identifier.
	PlanName string
	// Payload is the scenario launched on every infected device.
	Payload Scenario
	// Dwell is virtual time from a device's infection to the
	// propagation attempt on each of its neighbours (default
	// DefaultWormDwell).
	Dwell time.Duration
	// MaxInfections bounds the outbreak (default: the whole fleet).
	MaxInfections int
}

// dwell returns the effective propagation delay.
func (w Worm) dwell() time.Duration {
	if w.Dwell > 0 {
		return w.Dwell
	}
	return DefaultWormDwell
}

// LaunchFleet infects patient zero and lets the worm spread over the
// fleet's topology. Each infection launches the payload on that
// device's own target; each propagation is scheduled on the fleet's
// shared engine at the dwell. obs (may be nil) receives infection and
// block events in deterministic order. Returns the infection bookkeeper
// so callers can read the outbreak's final shape after the run.
func (w Worm) LaunchFleet(f Fleet, patient int, obs FleetObserver) (*Outbreak, error) {
	if w.Payload == nil {
		return nil, fmt.Errorf("attack: worm %q has no payload", w.PlanName)
	}
	if f == nil || f.Size() == 0 {
		return nil, fmt.Errorf("%w: empty fleet", ErrWormFleet)
	}
	if patient < 0 || patient >= f.Size() {
		return nil, fmt.Errorf("%w: patient zero %d outside fleet of %d", ErrWormFleet, patient, f.Size())
	}
	tgt := f.Target(patient)
	if tgt == nil || tgt.Engine == nil {
		return nil, fmt.Errorf("%w: patient zero has no engine", ErrWormFleet)
	}
	max := w.MaxInfections
	if max <= 0 {
		max = f.Size()
	}
	o := &Outbreak{
		worm:     w,
		fleet:    f,
		obs:      obs,
		max:      max,
		launch:   tgt.Engine.Now(),
		infected: make([]bool, f.Size()),
		ever:     make([]bool, f.Size()),
		hops:     make([]int, f.Size()),
	}
	if err := o.infect(patient, 0); err != nil {
		return nil, err
	}
	return o, nil
}

// Outbreak tracks one fleet-wide worm run: who is infected, at what hop
// depth, when the worm last made progress, and how many propagation
// attempts the fleet's quarantine gates absorbed. It is mutated only
// from the fleet engine's event queue, so reads are safe once the run's
// window has been simulated.
type Outbreak struct {
	worm  Worm
	fleet Fleet
	obs   FleetObserver
	max   int

	launch sim.VirtualTime
	// infected marks devices currently compromised; ever marks devices
	// that were compromised at least once. They diverge only when the
	// fleet recovers devices mid-outbreak (MarkRecovered), at which
	// point the worm may re-infect — each re-infection is a fresh hop,
	// not a duplicate absorbed by a seen-set.
	infected      []bool
	ever          []bool
	hops          []int
	numInfected   int // currently infected
	numEver       int // distinct devices ever infected
	numInfections int // infection events, re-infections included
	numRecovered  int // MarkRecovered calls that cleared an infection
	numBlocked    int
	lastActivity  time.Duration
}

// infect runs the payload on device i and schedules the propagation
// attempts on its neighbours. Patient zero's payload error surfaces to
// LaunchFleet; a deferred infection's payload error means the rig was
// assembled without a component the payload needs — a harness bug, so
// it panics exactly as a deferred Staged stage would.
func (o *Outbreak) infect(i, hop int) error {
	// The outbreak bound counts distinct victims, so a recovered device
	// being re-infected never re-opens an exhausted budget.
	if o.infected[i] || (!o.ever[i] && o.numEver >= o.max) {
		return nil
	}
	o.infected[i] = true
	if !o.ever[i] {
		o.ever[i] = true
		o.numEver++
	}
	o.hops[i] = hop
	o.numInfected++
	o.numInfections++
	tgt := o.fleet.Target(i)
	o.touch(tgt)
	if err := o.worm.Payload.Launch(tgt); err != nil {
		return fmt.Errorf("attack: worm %q payload on device %d: %w", o.worm.PlanName, i, err)
	}
	if o.obs != nil {
		o.obs.Infected(i, hop)
	}
	o.spread(i)
	return nil
}

// spread schedules one propagation attempt per neighbour of infected
// device i after the dwell, each checked against the link state at that
// moment.
func (o *Outbreak) spread(i int) {
	tgt := o.fleet.Target(i)
	hop := o.hops[i] + 1
	for _, j := range o.fleet.Neighbors(i) {
		i, j := i, j
		tgt.Engine.MustSchedule(o.worm.dwell(), func() {
			// A device repaired before its dwell expired no longer runs
			// the worm: its pending propagation dies with the infection.
			if !o.infected[i] {
				return
			}
			if o.infected[j] || (!o.ever[j] && o.numEver >= o.max) {
				return
			}
			if !o.fleet.LinkUp(i, j) {
				o.numBlocked++
				o.touch(tgt)
				if o.obs != nil {
					o.obs.Blocked(i, j)
				}
				return
			}
			if err := o.infect(j, hop); err != nil {
				panic(err)
			}
		})
	}
}

// Propagate schedules a fresh round of propagation attempts from
// device i — the re-spread a live infection mounts after its
// neighbours recover. It is how a recovered device gets re-infected:
// the attempt is a new hop through the topology, not a replayed event
// a seen-set could drop. No-op when i is not currently infected.
func (o *Outbreak) Propagate(i int) error {
	if i < 0 || i >= len(o.infected) {
		return fmt.Errorf("%w: device %d outside fleet of %d", ErrWormFleet, i, len(o.infected))
	}
	if !o.infected[i] {
		return nil
	}
	o.spread(i)
	return nil
}

// touch records the worm's latest activity relative to launch.
func (o *Outbreak) touch(tgt *Target) {
	if at := tgt.Engine.Now().Sub(o.launch); at > o.lastActivity {
		o.lastActivity = at
	}
}

// MarkRecovered clears device i's infection after the fleet repaired
// it (re-attestation passed, firmware restored). The device becomes
// susceptible again: a still-infected neighbour's next propagation
// attempt re-infects it as a new hop. Returns whether the call cleared
// an active infection. The worm's payload state on the device is the
// caller's to clean up — this only updates the outbreak's bookkeeping.
func (o *Outbreak) MarkRecovered(i int) bool {
	if i < 0 || i >= len(o.infected) || !o.infected[i] {
		return false
	}
	o.infected[i] = false
	o.numInfected--
	o.numRecovered++
	return true
}

// Infections returns the cumulative number of infection events,
// re-infections included. Without recovery it equals EverInfections.
func (o *Outbreak) Infections() int { return o.numInfections }

// EverInfections returns how many distinct devices the worm compromised
// at least once.
func (o *Outbreak) EverInfections() int { return o.numEver }

// Reinfections returns how many infection events hit a device that had
// already recovered once.
func (o *Outbreak) Reinfections() int { return o.numInfections - o.numEver }

// ActiveInfections returns how many devices are infected right now.
func (o *Outbreak) ActiveInfections() int { return o.numInfected }

// Recovered returns how many MarkRecovered calls cleared an infection.
func (o *Outbreak) Recovered() int { return o.numRecovered }

// Blocked returns how many propagation attempts found their link down.
func (o *Outbreak) Blocked() int { return o.numBlocked }

// IsInfected reports whether device i is currently compromised.
func (o *Outbreak) IsInfected(i int) bool { return o.infected[i] }

// Hop returns device i's infection depth (0 for patient zero); only
// meaningful when IsInfected(i).
func (o *Outbreak) Hop(i int) int { return o.hops[i] }

// LastActivity returns the virtual time, relative to launch, of the
// worm's final infection or blocked attempt — the moment the outbreak
// stopped progressing. Together with Infections it is E13's
// time-to-containment.
func (o *Outbreak) LastActivity() time.Duration { return o.lastActivity }
