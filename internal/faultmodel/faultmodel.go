package faultmodel

import (
	"time"

	"cres/internal/harness"
	"cres/internal/m2m"
)

// Per-purpose root indices: each fault purpose derives its own seed
// root via harness.ShardSeed(Seed, purpose), so link fates, churn
// schedules and backoff jitter draw from independent streams and adding
// a purpose never shifts another purpose's draws. The offsets are far
// above any shard index the harness hands out for cells, so a purpose
// root can never collide with a cell seed of the same campaign.
const (
	purposeLink    = 1<<20 + 1
	purposeChurn   = 1<<20 + 2
	purposeBackoff = 1<<20 + 3
)

// The fault timing every plan shares. A reordered or duplicated copy
// arrives up to reorderDelay late. A crashing device goes dark at an
// instant drawn from the campaign's first crashWindow and rejoins
// rebootOutage later. Verifier outage k, counting from 1, starts at
// k*outageEvery and lasts outageLen, which is shorter than outageEvery
// so the verifier is up between outages. A retry waits backoffBase,
// doubling per attempt up to backoffCap.
const (
	reorderDelay = time.Millisecond
	crashWindow  = 30 * time.Millisecond
	rebootOutage = 5 * time.Millisecond
	outageEvery  = 20 * time.Millisecond
	outageLen    = 5 * time.Millisecond
	backoffBase  = time.Millisecond
	backoffCap   = 8 * time.Millisecond
)

// LinkRates are the per-delivery fault probabilities of one fabric link.
// Each message crossing a link draws independently; the draws are keyed
// by the link's canonical name and a per-link counter, so one link's
// traffic never shifts another link's fates.
type LinkRates struct {
	// Drop is the probability in [0,1) that a delivery vanishes.
	Drop float64
	// Duplicate is the probability in [0,1) that a delivery arrives
	// twice (the copy delayed within reorderDelay).
	Duplicate float64
	// Reorder is the probability in [0,1) that a delivery is held back
	// by up to reorderDelay, letting later sends overtake it.
	Reorder float64
}

// Crash is one entry of a churn schedule: device Device leaves the
// network at At and rejoins at Back.
type Crash struct {
	Device   int
	At, Back time.Duration
}

// Plan is a compiled fault plan. The zero value (or any plan whose
// rates are all zero) is the identity: attaching it changes nothing.
// Plans are immutable and safe to share across goroutines; per-run
// state lives in the Injector.
type Plan struct {
	// Seed roots every derived stream.
	Seed int64
	// Link is the fabric fault model.
	Link LinkRates
	// CrashFraction is the probability in [0,1] that a device crashes
	// once mid-campaign, stays dark for the reboot outage, and rejoins.
	CrashFraction float64
	// Outages is how many times the verifier goes dark.
	Outages int
}

// Enabled reports whether the plan injects any fault at all.
func (p *Plan) Enabled() bool {
	return p.Link.Drop > 0 || p.Link.Duplicate > 0 || p.Link.Reorder > 0 ||
		p.CrashFraction > 0 || p.Outages > 0
}

// root derives the purpose's seed root.
func (p *Plan) root(purpose int) uint64 {
	return uint64(harness.ShardSeed(p.Seed, purpose))
}

// mix is the SplitMix64 finalizer, the same diffusion step the harness
// and the topology compiler use.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// u01 maps (stream, counter, draw) to a float in [0,1). Distinct draw
// indices within one counter step give independent values.
func u01(stream, counter, draw uint64) float64 {
	z := stream + 0x9e3779b97f4a7c15*(counter*8+draw+1)
	return float64(mix(z)>>11) / (1 << 53)
}

// fnv64 hashes a name into a stream selector (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// CrashSchedule expands the churn model over a fleet of n devices.
// Whether device i crashes, and when, is a pure function of (Seed, i):
// the schedule is identical however the fleet is simulated.
func (p *Plan) CrashSchedule(n int) []Crash {
	if p.CrashFraction <= 0 || n <= 0 {
		return nil
	}
	stream := p.root(purposeChurn)
	var out []Crash
	for i := 0; i < n; i++ {
		if u01(stream, uint64(i), 0) >= p.CrashFraction {
			continue
		}
		at := time.Duration(u01(stream, uint64(i), 1) * float64(crashWindow))
		out = append(out, Crash{Device: i, At: at, Back: at + rebootOutage})
	}
	return out
}

// VerifierDown reports whether the verifier is inside an outage window
// at the given instant (relative to campaign start).
func (p *Plan) VerifierDown(since time.Duration) bool {
	k := since / outageEvery
	return k >= 1 && k <= time.Duration(p.Outages) && since-k*outageEvery < outageLen
}

// Backoff returns the deterministic retry delay before attempt+1 on the
// named stream: exponential from backoffBase, capped at backoffCap,
// plus up to 25% seeded jitter so retriers sharing a cap do not
// synchronise. attempt counts from 1.
func (p *Plan) Backoff(stream string, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	jitter := time.Duration(u01(p.root(purposeBackoff)^fnv64(stream), uint64(attempt), 0) * float64(d) / 4)
	return d + jitter
}

// linkName canonicalises an unordered endpoint pair, mirroring the
// fabric's own link keying so (a,b) and (b,a) share one fault stream.
func linkName(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b
}

// Injector is a Plan attached to one network run: it holds the per-link
// draw counters that advance as traffic crosses each link. Create one
// per network with NewInjector; injectors are not safe for concurrent
// use (a network is single-threaded on its engine anyway).
type Injector struct {
	plan   *Plan
	counts map[string]uint64
}

// NewInjector returns a fresh injector over the plan, with all draw
// counters at zero.
func (p *Plan) NewInjector() *Injector {
	return &Injector{plan: p, counts: make(map[string]uint64)}
}

// onTime is the identity fate: one copy, no extra delay.
var onTime = []time.Duration{0}

// Fate implements m2m.FaultInjector: it decides the fate of one
// delivery crossing the from-to link. With all link rates zero it
// returns the identity fate without consuming a draw, so a zero plan
// leaves the fabric byte-identical to an uninjected one.
func (in *Injector) Fate(from, to string) m2m.Fate {
	r := in.plan.Link
	if r.Drop == 0 && r.Duplicate == 0 && r.Reorder == 0 {
		return m2m.Fate{Deliveries: onTime}
	}
	link := linkName(from, to)
	n := in.counts[link]
	in.counts[link] = n + 1
	stream := in.plan.root(purposeLink) ^ fnv64(link)
	if u01(stream, n, 0) < r.Drop {
		return m2m.Fate{}
	}
	var first time.Duration
	if u01(stream, n, 1) < r.Reorder {
		first = time.Duration((0.25 + 0.75*u01(stream, n, 2)) * float64(reorderDelay))
	}
	f := m2m.Fate{Deliveries: []time.Duration{first}}
	if u01(stream, n, 3) < r.Duplicate {
		f.Deliveries = append(f.Deliveries,
			first+time.Duration((0.25+0.75*u01(stream, n, 4))*float64(reorderDelay)))
	}
	return f
}
