package cres

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"cres/internal/attack"
	"cres/internal/faultmodel"
	"cres/internal/harness"
	"cres/internal/m2m"
	"cres/internal/report"
	"cres/internal/response"
	"cres/internal/scenario"
	"cres/internal/sim"
)

// This file implements E13, the networked-fleet resilience experiment:
// the first experiment where the intrusion HOPS BETWEEN devices. A
// worm (attack.Worm) compromises patient zero and schedules its
// payload on each neighbour after a dwell; the fleet answers — or
// doesn't — depending on the response mode. The sweep crosses wiring
// (scenario.TopologySpec: ring/star/mesh/random at several fanouts) ×
// dwell × mode and reports the infection outcome: peak infected,
// time-to-containment, propagation attempts blocked, links cut, and —
// the headline — devices saved by cooperative gossip relative to
// devices that defend alone. Every cell is one harness shard with its
// own engine; random wirings derive from the topology's position, not
// the cell's, so the three modes of one row always fight over the
// same graph.

// Swarm response modes.
const (
	// SwarmBaseline is the passive architecture: no monitors, no
	// response. The worm maps the reachable fleet.
	SwarmBaseline = "baseline"
	// SwarmIsolated is CRES devices defending alone: each detects and
	// contains its own compromise, but tells nobody.
	SwarmIsolated = "cres-isolated"
	// SwarmCooperative is CRES devices gossiping alert digests and
	// quarantining links towards known-compromised neighbours.
	SwarmCooperative = "cres-coop"
)

// SwarmModes returns the response modes in presentation order.
func SwarmModes() []string { return []string{SwarmBaseline, SwarmIsolated, SwarmCooperative} }

// E13Config parameterises RunE13WormResilience.
type E13Config struct {
	// RootSeed seeds the sweep; every cell derives its own engine seed
	// and every random wiring derives from its topology's position.
	RootSeed int64
	// Quick trims the sweep for smoke runs: three wirings, one dwell.
	Quick bool
}

// E13Cell is one fleet run: one wiring, one dwell, one response mode.
type E13Cell struct {
	Topology string
	Fanout   int
	Dwell    time.Duration
	Mode     string
	// Index is the cell's shard index; Seed its derived engine seed.
	Index int
	Seed  int64
	// Infected is the outbreak's final (= peak: infection is monotone)
	// compromised-device count; Saved is the fleet's size minus
	// Infected.
	Infected, Saved int
	// Blocked counts propagation attempts that found their link
	// quarantined; LinksCut the quarantine gates standing at the end.
	Blocked, LinksCut int
	// Containment is virtual time from worm launch to its last
	// activity (infection or blocked attempt).
	Containment time.Duration
	// Informed counts devices that ingested at least one gossiped
	// digest — the reach of the fleet's shared evidence.
	Informed int
	// Detected reports whether patient zero's own SSM saw every
	// payload signature (structurally false on baseline).
	Detected bool
}

// E13Result is the networked-fleet resilience sweep outcome.
type E13Result struct {
	Cells []E13Cell
	Table *report.Table
	// SavedByGossip sums, over every (wiring, dwell) row, the devices
	// the cooperative mode saved beyond the isolated mode.
	SavedByGossip int
	// CoopDominatesIsolated reports whether cooperation saved strictly
	// more devices than isolated defence in EVERY (wiring, dwell) row.
	CoopDominatesIsolated bool
}

// e13Payload is the attack-registry scenario every E13 worm carries.
// The sweep runs on a fault-free fabric: its cells get the plan the
// zero scenario.FaultSpec compiles to, which is disabled; E14 is the
// sweep that injects faults.
const e13Payload = "secure-probe"

// e13FleetSize is the device count of every wiring the sweep runs.
const e13FleetSize = 10

// defaultTopologies builds the sweep's wiring axis: ring (fanout 1 and
// 2), star, mesh and random (fanout 1 and 2), or three of them for a
// quick sweep.
func defaultTopologies(n int, quick bool) []scenario.TopologySpec {
	if quick {
		return []scenario.TopologySpec{
			{Kind: scenario.TopologyRing, Size: n, Fanout: 1},
			{Kind: scenario.TopologyStar, Size: n},
			{Kind: scenario.TopologyRandom, Size: n, Fanout: 2},
		}
	}
	return []scenario.TopologySpec{
		{Kind: scenario.TopologyRing, Size: n, Fanout: 1},
		{Kind: scenario.TopologyRing, Size: n, Fanout: 2},
		{Kind: scenario.TopologyStar, Size: n},
		{Kind: scenario.TopologyMesh, Size: n},
		{Kind: scenario.TopologyRandom, Size: n, Fanout: 1},
		{Kind: scenario.TopologyRandom, Size: n, Fanout: 2},
	}
}

// fleetSizes names the device counts of the wirings a sweep ran, for
// its table title: the one size when they agree, as in every default
// sweep, or each distinct size in order, joined by "/".
func fleetSizes(topos []*scenario.CompiledTopology) string {
	var sizes []string
	for _, t := range topos {
		if n := strconv.Itoa(t.Size()); !slices.Contains(sizes, n) {
			sizes = append(sizes, n)
		}
	}
	return strings.Join(sizes, "/")
}

// RunE13WormResilience sweeps worm campaigns over fleet wirings and
// response modes. Cells fan across the harness pool in enumeration
// order — topology-major, then dwell, then mode — and merge by index,
// so the table is byte-identical at any parallelism.
func RunE13WormResilience(cfg E13Config, pool *harness.Pool) (*E13Result, error) {
	payload, ok := attack.Get(e13Payload)
	if !ok {
		return nil, fmt.Errorf("e13: unknown worm payload %q", e13Payload)
	}
	// The worm's infection-to-propagation delays: one the gossip
	// handily beats, one it beats asleep. A quick sweep runs the first.
	dwells := []time.Duration{2 * time.Millisecond, 6 * time.Millisecond}
	if cfg.Quick {
		dwells = dwells[:1]
	}
	modes := SwarmModes()

	// Compile each wiring once, seeded by its position: the modes and
	// dwells of one row must fight over the same graph.
	wirings := defaultTopologies(e13FleetSize, cfg.Quick)
	topos := make([]*scenario.CompiledTopology, len(wirings))
	for i, ts := range wirings {
		if ts.Kind == scenario.TopologyRandom {
			ts.Seed = harness.ShardSeed(cfg.RootSeed, i)
		}
		ct, err := ts.Compile()
		if err != nil {
			return nil, fmt.Errorf("e13: topology %d: %w", i, err)
		}
		topos[i] = ct
	}

	type cellSpec struct {
		topo  *scenario.CompiledTopology
		dwell time.Duration
		mode  string
	}
	var specs []cellSpec
	for _, t := range topos {
		for _, d := range dwells {
			for _, m := range modes {
				specs = append(specs, cellSpec{topo: t, dwell: d, mode: m})
			}
		}
	}

	plan, err := scenario.FaultSpec{}.Compile()
	if err != nil {
		return nil, fmt.Errorf("e13: %w", err)
	}

	cells, err := harness.Map(pool, len(specs), cfg.RootSeed, func(sh harness.Shard) (E13Cell, error) {
		sp := specs[sh.Index]
		cell, _, _, err := runSwarmCell(sp.topo, sp.dwell, sp.mode, payload, sh.Seed, plan, nil)
		if err != nil {
			return E13Cell{}, fmt.Errorf("e13 %s/f%d/%v/%s: %w", sp.topo.Spec.Kind, sp.topo.Spec.Fanout, sp.dwell, sp.mode, err)
		}
		cell.Index = sh.Index
		cell.Seed = sh.Seed
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	res := &E13Result{Cells: cells, CoopDominatesIsolated: true}
	// Rows group the modes of one (wiring, dwell) pair. Key by the
	// cell's position — modes are the innermost enumeration axis.
	saved := make(map[int]map[string]int) // row index -> mode -> saved
	for _, c := range cells {
		row := c.Index / len(modes)
		if saved[row] == nil {
			saved[row] = make(map[string]int)
		}
		saved[row][c.Mode] = c.Saved
	}
	for _, byMode := range saved {
		coop, iso := byMode[SwarmCooperative], byMode[SwarmIsolated]
		res.SavedByGossip += coop - iso
		if coop <= iso {
			res.CoopDominatesIsolated = false
		}
	}

	t := report.NewTable(
		fmt.Sprintf("E13 — Networked-fleet resilience: %q worm over %d-device fleets (root seed %d)",
			e13Payload, e13FleetSize, cfg.RootSeed),
		"Topology", "Fanout", "Dwell", "Mode", "Infected", "Saved", "Blocked", "Links cut", "Containment", "Informed")
	for _, c := range cells {
		fanout := "-"
		if c.Topology == scenario.TopologyRing || c.Topology == scenario.TopologyRandom {
			fanout = report.I(c.Fanout)
		}
		t.AddRow(c.Topology, fanout, c.Dwell.String(), c.Mode,
			report.I(c.Infected), report.I(c.Saved), report.I(c.Blocked), report.I(c.LinksCut),
			c.Containment.String(), report.I(c.Informed))
	}
	t.AddRow("TOTAL", "-", "-", "coop vs isolated", "-",
		fmt.Sprintf("+%d", res.SavedByGossip), "-", "-", "-", "dominates: "+yn(res.CoopDominatesIsolated))
	res.Table = t
	return res, nil
}

// SwarmEvent is one entry of a fleet run's timeline.
type SwarmEvent struct {
	// At is virtual time since worm launch.
	At time.Duration
	// Kind is "infected", "blocked" or "quarantine".
	Kind string
	// Detail is the human-readable description.
	Detail string
}

// SwarmOutcome is one interactive fleet run: the E13 cell metrics plus
// the event timeline the sweep aggregates away.
type SwarmOutcome struct {
	Cell   E13Cell
	Events []SwarmEvent
}

// swarmTimeline records worm events with their virtual timestamps.
type swarmTimeline struct {
	rig    *swarmRig
	launch sim.VirtualTime
	events []SwarmEvent
}

var _ attack.FleetObserver = (*swarmTimeline)(nil)

// Infected implements attack.FleetObserver.
func (s *swarmTimeline) Infected(device, hop int) {
	s.events = append(s.events, SwarmEvent{
		At:     s.rig.eng.Now().Sub(s.launch),
		Kind:   "infected",
		Detail: fmt.Sprintf("%s compromised (hop %d)", swarmNodeName(device), hop),
	})
}

// Blocked implements attack.FleetObserver.
func (s *swarmTimeline) Blocked(from, to int) {
	s.events = append(s.events, SwarmEvent{
		At:     s.rig.eng.Now().Sub(s.launch),
		Kind:   "blocked",
		Detail: fmt.Sprintf("propagation %s -> %s hit quarantine gate", swarmNodeName(from), swarmNodeName(to)),
	})
}

// RunSwarmUnderFaults runs ONE fleet cell interactively — the cresim
// -topology mode — with a fault campaign layered onto the fabric (the
// zero spec leaves it perfect), and returns the metrics plus the full
// event timeline: infections, blocked hops, and the quarantine cuts
// the cooperative response made, in virtual-time order. The cell
// itself runs through the same runSwarmCell the E13 sweep uses, so the
// interactive numbers can never drift from the table's.
func RunSwarmUnderFaults(topo scenario.TopologySpec, dwell time.Duration, mode, payloadName string, seed int64, faults scenario.FaultSpec) (*SwarmOutcome, error) {
	valid := false
	for _, m := range SwarmModes() {
		valid = valid || m == mode
	}
	if !valid {
		return nil, fmt.Errorf("cres: unknown swarm mode %q (want one of %v)", mode, SwarmModes())
	}
	if dwell <= 0 {
		return nil, fmt.Errorf("cres: worm dwell %v, want a positive duration", dwell)
	}
	payload, ok := attack.Get(payloadName)
	if !ok {
		return nil, fmt.Errorf("cres: unknown worm payload %q", payloadName)
	}
	ct, err := topo.Compile()
	if err != nil {
		return nil, err
	}
	plan, err := faults.Compile()
	if err != nil {
		return nil, err
	}
	var tl *swarmTimeline
	cell, rig, _, err := runSwarmCell(ct, dwell, mode, payload, seed, plan, func(r *swarmRig) attack.FleetObserver {
		tl = &swarmTimeline{rig: r, launch: r.eng.Now()}
		return tl
	})
	if err != nil {
		return nil, err
	}

	out := &SwarmOutcome{Cell: cell, Events: tl.events}
	for _, dev := range rig.devs {
		if dev.Responder == nil {
			continue
		}
		for _, a := range dev.Responder.History() {
			if a.Kind != response.ActQuarantineLink {
				continue
			}
			out.Events = append(out.Events, SwarmEvent{
				At:     a.At.Sub(tl.launch),
				Kind:   "quarantine",
				Detail: fmt.Sprintf("%s cut link %s: %s", dev.Name, a.Target, a.Reason),
			})
		}
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		if out.Events[i].At != out.Events[j].At {
			return out.Events[i].At < out.Events[j].At
		}
		return out.Events[i].Detail < out.Events[j].Detail
	})
	return out, nil
}

// swarmNodeName names device i of a fleet.
func swarmNodeName(i int) string { return fmt.Sprintf("node-%02d", i) }

// swarmRig is a fleet of devices on ONE shared engine and ONE M2M
// network, wired by a compiled topology. It implements attack.Fleet.
type swarmRig struct {
	eng  *sim.Engine
	net  *m2m.Network
	topo *scenario.CompiledTopology
	devs []*Device
	tgts []*attack.Target
}

var _ attack.Fleet = (*swarmRig)(nil)

// newSwarmRig assembles and boots the fleet. Every device shares the
// engine (the fleet lives in one virtual timeline) and the network;
// trust is provisioned per topology edge, and cooperative mode gossips
// with exactly its topology neighbours.
func newSwarmRig(topo *scenario.CompiledTopology, mode string, seed int64) (*swarmRig, error) {
	eng := sim.New(seed)
	rig := &swarmRig{
		eng:  eng,
		net:  m2m.NewNetwork(eng, m2m.Config{}),
		topo: topo,
	}
	arch := scenario.ArchCRES
	if mode == SwarmBaseline {
		arch = scenario.ArchBaseline
	}
	n := topo.Size()
	for i := 0; i < n; i++ {
		dev, err := NewDevice(scenario.DeviceSpec{Name: swarmNodeName(i), Arch: arch}, eng, rig.net)
		if err != nil {
			return nil, err
		}
		rig.devs = append(rig.devs, dev)
	}
	// Trust per edge, both directions.
	for _, e := range topo.Edges() {
		a, b := rig.devs[e[0]], rig.devs[e[1]]
		a.Endpoint.Trust(b.Name, b.Endpoint.PublicKey())
		b.Endpoint.Trust(a.Name, a.Endpoint.PublicKey())
	}
	if mode == SwarmCooperative {
		for i, dev := range rig.devs {
			peers := make([]string, 0, len(topo.Neighbors(i)))
			for _, j := range topo.Neighbors(i) {
				peers = append(peers, swarmNodeName(j))
			}
			if err := dev.EnableCooperation(peers...); err != nil {
				return nil, err
			}
		}
	}
	for _, dev := range rig.devs {
		if _, err := dev.Boot(); err != nil {
			return nil, err
		}
		rig.tgts = append(rig.tgts, dev.Target())
	}
	return rig, nil
}

// Size implements attack.Fleet.
func (r *swarmRig) Size() int { return len(r.devs) }

// Neighbors implements attack.Fleet.
func (r *swarmRig) Neighbors(i int) []int { return r.topo.Neighbors(i) }

// Target implements attack.Fleet.
func (r *swarmRig) Target(i int) *attack.Target { return r.tgts[i] }

// LinkUp implements attack.Fleet: the worm crosses exactly the links
// the quarantine gates have not cut.
func (r *swarmRig) LinkUp(i, j int) bool {
	return r.net.LinkUp(swarmNodeName(i), swarmNodeName(j))
}

// runSwarmCell runs one (wiring, dwell, mode) fleet: launch the worm
// on patient zero, simulate until every possible propagation has long
// expired, then read the outbreak. The E13 sweep, the E14 fault sweep
// and the interactive RunSwarmUnderFaults path all come through here;
// mkObs (may be nil) builds a worm observer once the rig exists, so
// callers can record the event timeline the sweep aggregates away.
//
// plan (may be nil) is the cell's fault campaign. A nil or disabled
// plan wires NOTHING — no injector, no churn, no gossip redundancy —
// so a zero-rate fault run is byte-identical to the pre-fault
// behaviour. An enabled plan installs the seeded fabric injector,
// schedules the crash-and-reboot churn relative to worm launch, and
// arms redundant gossip with the plan's deterministic backoff.
func runSwarmCell(topo *scenario.CompiledTopology, dwell time.Duration, mode string, payload attack.Scenario, seed int64, plan *faultmodel.Plan, mkObs func(*swarmRig) attack.FleetObserver) (E13Cell, *swarmRig, *attack.Outbreak, error) {
	cell := E13Cell{
		Topology: topo.Spec.Kind,
		Fanout:   topo.Spec.Fanout,
		Dwell:    dwell,
		Mode:     mode,
	}
	rig, err := newSwarmRig(topo, mode, seed)
	if err != nil {
		return cell, nil, nil, err
	}
	if plan != nil && plan.Enabled() {
		rig.net.SetFaultInjector(plan.NewInjector())
		for _, c := range plan.CrashSchedule(topo.Size()) {
			c := c
			name := swarmNodeName(c.Device)
			rig.eng.MustSchedule(c.At, func() { rig.net.SetNodeDown(name, true) })    //nolint:errcheck // node names are the rig's own
			rig.eng.MustSchedule(c.Back, func() { rig.net.SetNodeDown(name, false) }) //nolint:errcheck // node names are the rig's own
		}
		for _, dev := range rig.devs {
			if dev.SSM == nil {
				continue
			}
			dev := dev
			dev.SetGossipRedundancy(2, func(k int) time.Duration {
				return plan.Backoff("gossip|"+dev.Name, k)
			})
		}
	}
	var obs attack.FleetObserver
	if mkObs != nil {
		obs = mkObs(rig)
	}
	worm := attack.Worm{
		PlanName: "worm-" + payload.Name(),
		Payload:  payload,
		Dwell:    dwell,
	}
	outbreak, err := worm.LaunchFleet(rig, 0, obs)
	if err != nil {
		return cell, nil, nil, err
	}
	// The worm's last possible hop chain is Size infections; pad for
	// the payload's own activity and the gossip in flight.
	rig.eng.RunFor(time.Duration(topo.Size())*dwell + 10*time.Millisecond)

	cell.Infected = outbreak.Infections()
	cell.Saved = topo.Size() - cell.Infected
	cell.Blocked = outbreak.Blocked()
	cell.LinksCut = rig.net.QuarantinedLinks()
	cell.Containment = outbreak.LastActivity()
	for _, dev := range rig.devs {
		if dev.SSM == nil {
			continue
		}
		if dev.SSM.PeerDigestsIngested() > 0 {
			cell.Informed++
		}
	}
	if p0 := rig.devs[0]; p0.SSM != nil {
		cell.Detected = true
		for _, sig := range payload.ExpectedSignatures() {
			if _, ok := p0.SSM.FirstDetection(sig); !ok {
				cell.Detected = false
				break
			}
		}
	}
	return cell, rig, outbreak, nil
}
