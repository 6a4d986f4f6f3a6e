package cres

import (
	"fmt"
	"strings"
	"time"

	"cres/internal/attack"
	"cres/internal/attest"
	"cres/internal/cryptoutil"
	"cres/internal/faultmodel"
	"cres/internal/harness"
	"cres/internal/report"
	"cres/internal/scenario"
	"cres/internal/sim"
)

// This file implements E14, the closed-loop recovery experiment: E13
// established that cooperative gossip CONTAINS a worm; E14 asks what
// happens afterwards, and under how much adversity. Every cell runs
// the cooperative fleet through a seeded fault campaign — a lossy,
// reordering, duplicating fabric, devices crashing and rebooting on a
// (seed, index)-derived schedule, the fleet verifier going dark in
// windows — and then either stops at containment ("contain", the E13
// endpoint) or closes the loop ("recover"): a fleet verifier
// re-attests repaired devices over the same faulty fabric with bounded
// retry, neighbours restore quarantined links and forget the recovered
// peer's threat history, and plays re-arm. The sweep crosses fault
// intensity × topology × mode and reports devices saved,
// time-to-full-service, attestation retries, and gossip
// delivered-vs-dropped at the fabric.

// E14 response modes.
const (
	// FaultModeContain stops at containment: quarantined devices stay
	// quarantined, so time-to-full-service pins at the window cap.
	FaultModeContain = "contain"
	// FaultModeRecover closes the loop: repair, re-attest with retry,
	// restore links, forget peers.
	FaultModeRecover = "recover"
)

// FaultModes returns the E14 response modes in presentation order.
func FaultModes() []string { return []string{FaultModeContain, FaultModeRecover} }

// FaultLevel names one fault-intensity point of the E14 sweep. The
// spec's Seed field is ignored — the sweep derives a per-(topology,
// level) seed so the contain and recover cells of one row face the
// SAME fault stream.
type FaultLevel struct {
	Name string
	Spec scenario.FaultSpec
}

// DefaultFaultLevels returns the E14 fault-intensity axis: a fault-free
// control, a mildly lossy fabric, and a hostile one with heavy loss,
// churn and repeated verifier outages.
func DefaultFaultLevels() []FaultLevel {
	return []FaultLevel{
		{Name: "none", Spec: scenario.FaultSpec{}},
		{Name: "low", Spec: scenario.FaultSpec{
			Drop: 0.05, Duplicate: 0.05, Reorder: 0.1,
			CrashFraction: 0.2, VerifierOutages: 1,
		}},
		{Name: "high", Spec: scenario.FaultSpec{
			Drop: 0.2, Duplicate: 0.1, Reorder: 0.2,
			CrashFraction: 0.4, VerifierOutages: 3,
		}},
	}
}

// LookupFaultLevel returns the DefaultFaultLevels entry called name, or
// an error naming the valid levels.
func LookupFaultLevel(name string) (FaultLevel, error) {
	levels := DefaultFaultLevels()
	names := make([]string, len(levels))
	for i, lv := range levels {
		if lv.Name == name {
			return lv, nil
		}
		names[i] = lv.Name
	}
	return FaultLevel{}, fmt.Errorf("unknown value %q (valid: %s)", name, strings.Join(names, ", "))
}

// E14Config parameterises RunE14FaultRecovery.
type E14Config struct {
	// RootSeed seeds the sweep. Engine seeds derive per cell; fault
	// seeds derive per (topology, level) pair so the two modes of a row
	// share their faults.
	RootSeed int64
	// Topologies are the wirings under test (default ring fanout 1,
	// star, random fanout 2 of e14FleetSize devices — the E13 quick
	// axis, where cooperative containment is established).
	Topologies []scenario.TopologySpec
	// Dwell is the worm's propagation delay (default 2ms).
	Dwell time.Duration
	// Levels is the fault-intensity axis (default DefaultFaultLevels).
	Levels []FaultLevel
	// Payload is the worm's payload scenario (default "secure-probe").
	Payload string
	// Quick trims the sweep: two wirings, levels none and high.
	Quick bool
}

// E14Cell is one fleet run: one wiring, one fault level, one mode.
type E14Cell struct {
	Topology string
	Fanout   int
	Level    string
	Mode     string
	// Index is the cell's shard index; Seed its derived engine seed;
	// FaultSeed the row's shared fault-plan seed.
	Index     int
	Seed      int64
	FaultSeed int64
	// Infected counts distinct devices the worm ever compromised;
	// Reinfected the infections of devices that had already recovered
	// once; Saved is the fleet's size minus Infected.
	Infected, Reinfected, Saved int
	// Blocked counts propagation attempts absorbed by quarantine gates.
	Blocked int
	// Crashes is how many devices the churn schedule took down.
	Crashes int
	// Recovered counts devices repaired and verified clean; Retries the
	// attestation re-challenges the faulty fabric forced.
	Recovered int
	Retries   uint64
	// GossipDelivered and GossipDropped are the fabric's counters for
	// the gossip kind — delivered past all faults vs dropped by them.
	GossipDelivered, GossipDropped uint64
	// TTFS is time-to-full-service from worm launch: every infection
	// repaired and re-attested, every quarantined link restored, every
	// crashed device rebooted. Capped at the window for cells that
	// never get there (all contain cells by construction).
	TTFS time.Duration
	// FullService reports whether the fleet actually reached full
	// service inside the window.
	FullService bool
}

// E14Result is the closed-loop recovery sweep outcome.
type E14Result struct {
	Cells []E14Cell
	Table *report.Table
	// RecoveryDominates reports whether the recover mode reached full
	// service strictly faster than the contain mode in EVERY
	// (topology, level) row.
	RecoveryDominates bool
	// MeanTTFSGain averages, over rows, the contain-vs-recover
	// time-to-full-service difference.
	MeanTTFSGain time.Duration
}

// Every E14 sweep runs both response modes, wires e14FleetSize
// devices in its default topologies, and caps each cell's recovery
// phase at e14Window from worm launch: a contain cell's
// time-to-full-service pins there.
const (
	e14FleetSize = 10
	e14Window    = 100 * time.Millisecond
)

// e14DefaultTopologies is the wiring axis (the E13 quick axis).
func e14DefaultTopologies(n int, quick bool) []scenario.TopologySpec {
	all := []scenario.TopologySpec{
		{Kind: scenario.TopologyRing, Size: n, Fanout: 1},
		{Kind: scenario.TopologyStar, Size: n},
		{Kind: scenario.TopologyRandom, Size: n, Fanout: 2},
	}
	if quick {
		return all[:2]
	}
	return all
}

// RunE14FaultRecovery sweeps the closed recovery loop over fault
// intensity × topology × mode. Cells fan across the harness pool in
// enumeration order — topology-major, then level, then mode — and
// merge by index, so the table is byte-identical at any parallelism.
func RunE14FaultRecovery(cfg E14Config, pool *harness.Pool) (*E14Result, error) {
	if cfg.Payload == "" {
		cfg.Payload = "secure-probe"
	}
	payload, ok := attack.Get(cfg.Payload)
	if !ok {
		return nil, fmt.Errorf("e14: unknown worm payload %q", cfg.Payload)
	}
	if cfg.Dwell <= 0 {
		cfg.Dwell = 2 * time.Millisecond
	}
	if cfg.Topologies == nil {
		cfg.Topologies = e14DefaultTopologies(e14FleetSize, cfg.Quick)
	}
	if cfg.Levels == nil {
		cfg.Levels = DefaultFaultLevels()
		if cfg.Quick {
			cfg.Levels = []FaultLevel{cfg.Levels[0], cfg.Levels[2]}
		}
	}
	modes := FaultModes()

	topos := make([]*scenario.CompiledTopology, len(cfg.Topologies))
	for i, ts := range cfg.Topologies {
		if ts.Kind == scenario.TopologyRandom && ts.Seed == 0 {
			ts.Seed = harness.ShardSeed(cfg.RootSeed, i)
		}
		ct, err := ts.Compile()
		if err != nil {
			return nil, fmt.Errorf("e14: topology %d: %w", i, err)
		}
		topos[i] = ct
	}

	// One fault plan per (topology, level) ROW, seeded by the row's
	// position offset far from the engine-seed stream: both modes of a
	// row face identical link fates, churn and outages.
	type cellSpec struct {
		topo      *scenario.CompiledTopology
		level     FaultLevel
		mode      string
		plan      *faultmodel.Plan
		faultSeed int64
	}
	var specs []cellSpec
	for ti, t := range topos {
		for li, lv := range cfg.Levels {
			row := ti*len(cfg.Levels) + li
			spec := lv.Spec
			spec.Seed = harness.ShardSeed(cfg.RootSeed, 1000+row)
			plan, err := spec.Compile()
			if err != nil {
				return nil, fmt.Errorf("e14: fault level %q: %w", lv.Name, err)
			}
			for _, m := range modes {
				specs = append(specs, cellSpec{topo: t, level: lv, mode: m, plan: plan, faultSeed: spec.Seed})
			}
		}
	}

	cells, err := harness.Map(pool, len(specs), cfg.RootSeed, func(sh harness.Shard) (E14Cell, error) {
		sp := specs[sh.Index]
		cell, err := runFaultCell(sp.topo, cfg.Dwell, sp.mode, payload, sh.Seed, sp.plan, e14Window)
		if err != nil {
			return E14Cell{}, fmt.Errorf("e14 %s/f%d/%s/%s: %w", sp.topo.Spec.Kind, sp.topo.Spec.Fanout, sp.level.Name, sp.mode, err)
		}
		cell.Level = sp.level.Name
		cell.Index = sh.Index
		cell.Seed = sh.Seed
		cell.FaultSeed = sp.faultSeed
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	res := &E14Result{Cells: cells, RecoveryDominates: true}
	ttfs := make(map[int]map[string]time.Duration) // row index -> mode -> TTFS
	for _, c := range cells {
		row := c.Index / len(modes)
		if ttfs[row] == nil {
			ttfs[row] = make(map[string]time.Duration)
		}
		ttfs[row][c.Mode] = c.TTFS
	}
	rows := 0
	var gain time.Duration
	for _, byMode := range ttfs {
		contain, hasContain := byMode[FaultModeContain]
		rec, hasRecover := byMode[FaultModeRecover]
		if !hasContain || !hasRecover {
			continue
		}
		rows++
		gain += contain - rec
		if rec >= contain {
			res.RecoveryDominates = false
		}
	}
	if rows > 0 {
		res.MeanTTFSGain = gain / time.Duration(rows)
	}

	t := report.NewTable(
		fmt.Sprintf("E14 — Closed-loop recovery under fault injection: %q worm, %s-device fleets, %v window (root seed %d)",
			cfg.Payload, fleetSizes(topos), e14Window, cfg.RootSeed),
		"Topology", "Fanout", "Faults", "Mode", "Infected", "Reinf", "Saved", "Crashes",
		"Recovered", "Retries", "Gossip d/x", "TTFS", "Full svc")
	for _, c := range cells {
		fanout := "-"
		if c.Topology == scenario.TopologyRing || c.Topology == scenario.TopologyRandom {
			fanout = report.I(c.Fanout)
		}
		t.AddRow(c.Topology, fanout, c.Level, c.Mode,
			report.I(c.Infected), report.I(c.Reinfected), report.I(c.Saved), report.I(c.Crashes),
			report.I(c.Recovered), fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d/%d", c.GossipDelivered, c.GossipDropped),
			c.TTFS.String(), yn(c.FullService))
	}
	t.AddRow("TOTAL", "-", "-", "recover vs contain", "-", "-", "-", "-", "-", "-", "-",
		fmt.Sprintf("-%v mean", res.MeanTTFSGain), "dominates: "+yn(res.RecoveryDominates))
	res.Table = t
	return res, nil
}

// runFaultCell runs one E14 cell: containment through runSwarmCell
// (cooperative mode, faults wired), then — in recover mode — the
// closed recovery loop until full service or the window cap. Both
// modes simulate the same total span, so fabric and churn statistics
// stay comparable.
func runFaultCell(topo *scenario.CompiledTopology, dwell time.Duration, mode string, payload attack.Scenario, seed int64, plan *faultmodel.Plan, window time.Duration) (E14Cell, error) {
	cell13, rig, outbreak, err := runSwarmCell(topo, dwell, SwarmCooperative, payload, seed, plan, nil)
	if err != nil {
		return E14Cell{}, err
	}
	cell := E14Cell{
		Topology: cell13.Topology,
		Fanout:   cell13.Fanout,
		Mode:     mode,
		Crashes:  len(plan.CrashSchedule(topo.Size())),
	}
	// runSwarmCell simulated exactly the containment window from the
	// worm's launch, so "now - that window" is the launch instant every
	// E14 clock measures from.
	containWindow := time.Duration(topo.Size())*dwell + 10*time.Millisecond
	launch := rig.eng.Now().Add(-containWindow)

	var ctrl *recoveryController
	if mode == FaultModeRecover {
		ctrl, err = newRecoveryController(rig, outbreak, plan, launch, window)
		if err != nil {
			return E14Cell{}, err
		}
		ctrl.start()
	}
	rig.eng.RunUntil(launch.Add(window + 5*time.Millisecond))

	cell.Infected = outbreak.EverInfections()
	cell.Reinfected = outbreak.Reinfections()
	cell.Saved = topo.Size() - cell.Infected
	cell.Blocked = outbreak.Blocked()
	cell.TTFS = window
	if ctrl != nil {
		cell.Recovered = ctrl.recovered()
		cell.Retries = ctrl.verifier.Retries()
		if ctrl.fullAt >= 0 {
			cell.TTFS = ctrl.fullAt
			cell.FullService = true
		}
	}
	ks := rig.net.KindStats(GossipKind)
	cell.GossipDelivered, cell.GossipDropped = ks.Delivered, ks.Dropped
	return cell, nil
}

// recoveryController closes the loop on one fleet: from the end of the
// containment window it sweeps the fleet in rounds, repairing infected
// devices (isolation lifted, plays re-armed, outbreak bookkeeping
// cleared), re-attesting them through a fleet verifier over the faulty
// fabric with bounded seeded retry, and — on a Trusted verdict —
// restoring the neighbours' quarantined links and forgetting the
// recovered peer's threat history. Still-infected devices keep
// re-propagating each round, so recovery races live infections; the
// repair step cuts any still-open link towards an infected neighbour
// first, so the race always makes progress.
type recoveryController struct {
	rig      *swarmRig
	outbreak *attack.Outbreak
	plan     *faultmodel.Plan
	verifier *attest.Verifier
	launch   sim.VirtualTime
	deadline sim.VirtualTime

	repaired []bool
	verified []bool
	pending  []bool
	fullAt   time.Duration // TTFS once reached, else -1
}

// recoveryRound is the sweep period; repairsPerRound paces the repair
// crew, spreading recovery over several rounds instead of resolving the
// whole fleet in one instantaneous sweep.
const (
	recoveryRound   = 2 * time.Millisecond
	repairsPerRound = 2
)

// newRecoveryController wires the fleet verifier into the rig: a new
// network node, mutual trust with every device, an attester per device,
// and an appraisal policy built from the fleet's own attestation keys
// and event logs.
func newRecoveryController(rig *swarmRig, outbreak *attack.Outbreak, plan *faultmodel.Plan, launch sim.VirtualTime, window time.Duration) (*recoveryController, error) {
	n := len(rig.devs)
	vkey, err := cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("e14-verifier"), "fleet-verifier", "", 32))
	if err != nil {
		return nil, err
	}
	vep, err := rig.net.AddNode("fleet-verifier", vkey)
	if err != nil {
		return nil, err
	}
	policy := &attest.Policy{
		AIKs:                make(map[string]cryptoutil.PublicKey, n),
		AllowedMeasurements: make(map[cryptoutil.Digest]bool),
	}
	for _, dev := range rig.devs {
		vep.Trust(dev.Name, dev.Endpoint.PublicKey())
		dev.Endpoint.Trust("fleet-verifier", vep.PublicKey())
		attest.NewAttester(dev.TPM, dev.Endpoint)
		policy.AIKs[dev.Name] = dev.TPM.AIKPublic()
		for _, entry := range dev.TPM.EventLog() {
			policy.AllowedMeasurements[entry.Measurement] = true
		}
	}
	c := &recoveryController{
		rig:      rig,
		outbreak: outbreak,
		plan:     plan,
		launch:   launch,
		deadline: launch.Add(window),
		repaired: make([]bool, n),
		verified: make([]bool, n),
		pending:  make([]bool, n),
		fullAt:   -1,
	}
	c.verifier = attest.NewVerifier(rig.eng, vep, policy, c.onAppraisal)
	return c, nil
}

// start schedules the first recovery round.
func (c *recoveryController) start() {
	c.rig.eng.MustSchedule(recoveryRound, func() { c.round() })
}

// round is one recovery sweep. It keeps rescheduling itself until full
// service or the window deadline.
func (c *recoveryController) round() {
	if c.fullAt >= 0 || c.rig.eng.Now() >= c.deadline {
		return
	}
	// The worm does not wait for the verifier: live infections keep
	// trying to spread every round, so recovery races re-infection.
	for i := range c.rig.devs {
		if c.outbreak.IsInfected(i) {
			c.outbreak.Propagate(i) //nolint:errcheck // index is in range by construction
		}
	}
	if !c.plan.VerifierDown(c.rig.eng.Now().Sub(c.launch)) {
		repairs := 0
		for i := range c.rig.devs {
			if c.outbreak.IsInfected(i) && repairs < repairsPerRound {
				c.repair(i)
				repairs++
				continue
			}
			// Re-challenge repaired devices whose earlier attestation
			// concluded in a timeout (crashed device, retries exhausted).
			if c.repaired[i] && !c.verified[i] && !c.pending[i] {
				c.challenge(i)
			}
		}
		c.checkFullService()
	}
	c.rig.eng.MustSchedule(recoveryRound, func() { c.round() })
}

// repair fixes one infected device: cut any still-open link towards an
// infected neighbour (so the repair cannot be undone by the next
// propagation round), lift the local isolation and re-arm the plays,
// clear the outbreak bookkeeping, then queue re-attestation.
func (c *recoveryController) repair(i int) {
	dev := c.rig.devs[i]
	for _, j := range c.rig.topo.Neighbors(i) {
		if c.outbreak.IsInfected(j) && c.rig.LinkUp(i, j) {
			dev.Responder.QuarantineLink(c.rig.net, dev.Name, swarmNodeName(j), //nolint:errcheck // recorded via action log
				"recovery sweep: neighbour still infected")
		}
	}
	if isolated := dev.Responder.Isolated(); len(isolated) > 0 {
		for _, res := range isolated {
			dev.Recover(res, "fleet recovery sweep") //nolint:errcheck // restoring a known-isolated initiator
		}
	} else if dev.SSM != nil {
		dev.SSM.MarkRecovered("fleet recovery sweep")
	}
	c.outbreak.MarkRecovered(i)
	c.repaired[i] = true
	c.challenge(i)
}

// challenge re-attests device i over the faulty fabric with the plan's
// deterministic backoff.
func (c *recoveryController) challenge(i int) {
	dev := c.rig.devs[i]
	c.pending[i] = true
	err := c.verifier.ChallengeWithRetry(dev.Name, attest.RetryPolicy{
		Attempts: 3,
		Timeout:  2 * time.Millisecond,
		Backoff: func(k int) time.Duration {
			return c.plan.Backoff("attest|"+dev.Name, k)
		},
	})
	if err != nil {
		c.pending[i] = false
	}
}

// onAppraisal consumes verifier verdicts. A trusted device gets its
// links restored and its threat history forgotten fleet-wide; a timeout
// leaves the device for a later round's re-challenge.
func (c *recoveryController) onAppraisal(a attest.Appraisal) {
	i := -1
	for j, dev := range c.rig.devs {
		if dev.Name == a.Device {
			i = j
			break
		}
	}
	if i < 0 {
		return
	}
	c.pending[i] = false
	if a.Verdict != attest.VerdictTrusted {
		return
	}
	// A device re-infected while its appraisal was in flight is not
	// clean — leave it for the next sweep.
	if c.outbreak.IsInfected(i) {
		return
	}
	c.verified[i] = true
	name := c.rig.devs[i].Name
	for _, j := range c.rig.topo.Neighbors(i) {
		peer := c.rig.devs[j]
		// Only restore towards neighbours that are themselves clean:
		// links towards live infections stay cut until THEY re-attest.
		if !c.outbreak.IsInfected(j) {
			peer.Responder.RestoreLink(c.rig.net, peer.Name, name, "neighbour re-attested clean") //nolint:errcheck // not every neighbour cut this link
			c.rig.devs[i].Responder.RestoreLink(c.rig.net, name, peer.Name, "both sides clean")   //nolint:errcheck // not every link was cut
		}
		peer.ForgetPeer(name)
	}
	c.checkFullService()
}

// recovered counts devices repaired AND verified clean.
func (c *recoveryController) recovered() int {
	n := 0
	for i := range c.verified {
		if c.verified[i] {
			n++
		}
	}
	return n
}

// checkFullService declares time-to-full-service the first instant no
// infection is active, every repaired device is verified clean, every
// quarantined link is restored, and every crashed device is back up.
// (No infection active implies every ever-infected device has been
// repaired: MarkRecovered only happens in repair.)
func (c *recoveryController) checkFullService() {
	if c.fullAt >= 0 || c.outbreak.ActiveInfections() > 0 {
		return
	}
	for i, dev := range c.rig.devs {
		if c.repaired[i] && !c.verified[i] {
			return
		}
		if len(dev.Responder.QuarantinedLinks()) > 0 {
			return
		}
		if c.rig.net.NodeDown(dev.Name) {
			return
		}
	}
	c.fullAt = c.rig.eng.Now().Sub(c.launch)
}
