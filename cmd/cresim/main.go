// Command cresim runs attack scenarios and staged attack plans against
// a simulated device and prints the outcome: what the monitors saw,
// what the security manager did, how the services fared, and the
// forensic reconstruction.
//
// The -fleet mode is the streaming fleet smoke: attest an N-device
// fleet on the fleet engine and print the merged summary plus the
// sampled anomalous devices.
//
// The -tree mode attests a fleet through the hierarchical verifier
// tree: verifier shards are the leaves of a depth × fanout hierarchy,
// every interior node batch-verifies and re-signs its children's
// summaries, and the mode then re-runs the tree with one mid-tier
// verifier forging its merged summary to show the detection and
// attribution on the way up.
//
// The -topology mode runs a worm over a wired fleet — one E13 cell,
// interactively: patient zero is compromised, the worm's payload
// schedules itself on each neighbour after -dwell, and the fleet
// answers according to -mode (baseline, cres-isolated or cres-coop).
// The full event timeline is printed: infections, gossip-triggered
// link quarantines, and the propagation attempts they blocked.
//
// Usage:
//
//	cresim -list
//	cresim -scenario code-injection [-arch cres|baseline|both] [-seed 7]
//	cresim -scenario secure-probe,bus-flood -arch both
//	cresim -plan network-takeover
//	cresim -plan "secure-probe@0,log-wipe@10ms*3"
//	cresim -all
//	cresim -fleet 4096 [-parallel N] [-seed 7]
//	cresim -tree 2:4 [-parallel N] [-seed 7]
//	cresim -topology ring:10 [-dwell 2ms] [-mode cres-coop] [-worm secure-probe]
//	cresim -topology ring:10 -faults high
//	cresim -topology star:10 -faults high -recover
//
// The -faults flag layers a named fault campaign (see cres.
// DefaultFaultLevels: none, low, high) onto the topology mode's fabric:
// seeded message drop/duplication/reordering, device crash-and-reboot
// churn, and verifier outages. Adding -recover closes the loop: the
// cell is run through experiment E14's contain and recover modes and
// the comparison table is printed — quarantined devices re-attest
// through a fleet verifier over the faulty fabric, links are restored,
// and time-to-full-service is measured against the containment-only
// baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cres"
	"cres/internal/attack"
	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/scenario"
)

// options collects the CLI flags.
type options struct {
	list     bool
	scenario string
	plan     string
	all      bool
	arch     string
	seed     int64
	fleet    int
	tree     string
	parallel int
	topology string
	dwell    time.Duration
	mode     string
	worm     string
	faults   string
	// recoverLoop is the -recover flag ("recover" itself would shadow
	// the builtin in any local rebinding).
	recoverLoop bool
	// given names the flags set on the command line, so a flag that
	// carries a default can still be told apart from one the user gave.
	given map[string]bool
}

func main() {
	var o options
	flag.BoolVar(&o.list, "list", false, "list available attack scenarios and built-in plans")
	flag.StringVar(&o.scenario, "scenario", "", "comma-separated scenarios to run (see -list)")
	flag.StringVar(&o.plan, "plan", "", `staged plans: built-in names ("implant-persist") or "scenario@delay,..." syntax`)
	flag.BoolVar(&o.all, "all", false, "run every scenario")
	flag.StringVar(&o.arch, "arch", "cres", "architecture: cres, baseline or both")
	flag.Int64Var(&o.seed, "seed", 7, "simulation seed")
	flag.IntVar(&o.fleet, "fleet", 0, "attest an N-device fleet on the streaming engine (smoke mode)")
	flag.StringVar(&o.tree, "tree", "", `attest through a verifier hierarchy: "depth:fanout" (e.g. 2:4)`)
	flag.IntVar(&o.parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.StringVar(&o.topology, "topology", "", `worm-over-fleet mode: "kind[:size[:fanout]]" (ring, star, mesh, random)`)
	flag.DurationVar(&o.dwell, "dwell", 2*time.Millisecond, "worm infection-to-propagation delay (topology mode)")
	flag.StringVar(&o.mode, "mode", "cres-coop", "fleet response mode: baseline, cres-isolated or cres-coop (topology mode)")
	flag.StringVar(&o.worm, "worm", "secure-probe", "worm payload scenario (topology mode; see -list)")
	flag.StringVar(&o.faults, "faults", "none", "fault campaign on the fabric: none, low or high (topology mode)")
	flag.BoolVar(&o.recoverLoop, "recover", false, "run the cell through E14's contain vs recover modes and print the comparison (topology mode)")
	flag.Parse()
	o.given = make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { o.given[f.Name] = true })

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "cresim:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.parallel < 0 {
		return fmt.Errorf("-parallel %d, want >= 0 (0 = GOMAXPROCS)", o.parallel)
	}
	if o.fleet < 0 {
		return fmt.Errorf("-fleet %d, want a positive device count", o.fleet)
	}
	if err := checkMode(o); err != nil {
		return err
	}
	if o.list {
		for _, sc := range attack.All() {
			fmt.Printf("%-22s %s\n", sc.Name(), sc.Description())
		}
		fmt.Println()
		for _, p := range scenario.BuiltinPlans() {
			fmt.Printf("%-22s [plan] %s\n", p.Name, p.Description)
		}
		return nil
	}

	if o.fleet > 0 {
		return runFleet(o)
	}

	if o.tree != "" {
		return runTree(o)
	}

	if o.topology != "" {
		return runSwarm(o)
	}

	if err := oneOf("-arch", o.arch, []string{scenario.ArchCRES, scenario.ArchBaseline, "both"}); err != nil {
		return err
	}
	archs := []string{o.arch}
	if o.arch == "both" {
		archs = []string{scenario.ArchCRES, scenario.ArchBaseline}
	}

	attacks, err := selectAttacks(o)
	if err != nil {
		return err
	}
	for _, sc := range attacks {
		for _, arch := range archs {
			if err := runOne(sc, arch, o.seed); err != nil {
				return fmt.Errorf("%s: %w", sc.Name(), err)
			}
		}
	}
	return nil
}

// checkMode rejects a flag the selected mode would drop: cresim runs
// one mode, only the scenario mode (-scenario, -plan or -all) takes
// -arch, only the topology mode takes -faults, -recover, -dwell, -mode
// and -worm, and -recover, which runs both of E14's modes, takes no
// -mode.
func checkMode(o options) error {
	var modes []string
	if o.list {
		modes = append(modes, "-list")
	}
	if o.fleet > 0 {
		modes = append(modes, "-fleet")
	}
	if o.tree != "" {
		modes = append(modes, "-tree")
	}
	if o.topology != "" {
		modes = append(modes, "-topology")
	}
	switch {
	case o.scenario != "":
		modes = append(modes, "-scenario")
	case o.plan != "":
		modes = append(modes, "-plan")
	case o.all:
		modes = append(modes, "-all")
	}
	if len(modes) > 1 {
		return fmt.Errorf("%s and %s are exclusive modes", modes[0], modes[1])
	}
	if o.given["arch"] && (o.list || o.fleet > 0 || o.tree != "" || o.topology != "") {
		return fmt.Errorf("-arch works only with -scenario, -plan or -all, not with %s", modes[0])
	}
	if o.topology != "" {
		if o.recoverLoop && o.given["mode"] {
			return fmt.Errorf("-mode does not work with -recover: E14 runs its own contain and recover modes")
		}
		return nil
	}
	var dropped string
	switch {
	case o.given["faults"]:
		dropped = "-faults"
	case o.given["recover"]:
		dropped = "-recover"
	case o.given["dwell"]:
		dropped = "-dwell"
	case o.given["mode"]:
		dropped = "-mode"
	case o.given["worm"]:
		dropped = "-worm"
	default:
		return nil
	}
	if len(modes) == 0 {
		return fmt.Errorf("%s works only with -topology", dropped)
	}
	return fmt.Errorf("%s works only with -topology, not with %s", dropped, modes[0])
}

// selectAttacks resolves the -all/-scenario/-plan flags into launchable
// attacks, scenarios first.
func selectAttacks(o options) ([]attack.Scenario, error) {
	var attacks []attack.Scenario
	if o.all {
		attacks = attack.All()
	} else {
		for _, name := range strings.Split(o.scenario, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			sc, ok := attack.Get(name)
			if !ok {
				return nil, fmt.Errorf("no scenario %q (use -list)", name)
			}
			attacks = append(attacks, sc)
		}
	}
	if o.plan != "" {
		plans, err := scenario.ParsePlans(o.plan)
		if err != nil {
			return nil, err
		}
		for _, p := range plans {
			cp, err := p.Compile()
			if err != nil {
				return nil, err
			}
			attacks = append(attacks, cp.Scenario())
		}
	}
	if len(attacks) == 0 {
		return nil, fmt.Errorf("nothing to run: give -scenario, -plan or -all (use -list)")
	}
	return attacks, nil
}

// parseTopology parses the -topology value: "kind", "kind:size" or
// "kind:size:fanout".
func parseTopology(s string) (scenario.TopologySpec, error) {
	parts := strings.Split(s, ":")
	spec := scenario.TopologySpec{Kind: strings.TrimSpace(parts[0]), Size: 10}
	var err error
	if len(parts) > 1 {
		if spec.Size, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
			return spec, fmt.Errorf("-topology size %q: %v", parts[1], err)
		}
	}
	if len(parts) > 2 {
		if spec.Fanout, err = strconv.Atoi(strings.TrimSpace(parts[2])); err != nil {
			return spec, fmt.Errorf("-topology fanout %q: %v", parts[2], err)
		}
	}
	if len(parts) > 3 {
		return spec, fmt.Errorf("-topology %q: want kind[:size[:fanout]]", s)
	}
	return spec, nil
}

// oneOf rejects a flag value that is not in the valid set, naming
// every valid value — no flag falls back to a default silently.
func oneOf(flagName, val string, valid []string) error {
	for _, v := range valid {
		if v == val {
			return nil
		}
	}
	return fmt.Errorf("%s: unknown value %q (valid: %s)", flagName, val, strings.Join(valid, ", "))
}

// runSwarm is the worm-over-fleet mode: one topology, one dwell, one
// response mode, with the full event timeline printed — the
// interactive view of one E13 cell. With -faults the fabric is lossy;
// with -recover the cell becomes an E14 row instead.
func runSwarm(o options) error {
	spec, err := parseTopology(o.topology)
	if err != nil {
		return err
	}
	// Validate every topology-mode flag up front so a typo surfaces as
	// a usage error listing the valid names, never a silent default.
	if err := oneOf("-topology", spec.Kind, scenario.TopologyKinds()); err != nil {
		return err
	}
	if err := oneOf("-mode", o.mode, cres.SwarmModes()); err != nil {
		return err
	}
	if err := oneOf("-worm", o.worm, attack.Names()); err != nil {
		return err
	}
	if o.dwell <= 0 {
		return fmt.Errorf("-dwell %v, want a positive duration (e.g. 2ms)", o.dwell)
	}
	level, err := cres.LookupFaultLevel(o.faults)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	spec.Seed = o.seed
	if o.recoverLoop {
		return runRecovery(o, spec, level)
	}
	out, err := cres.RunSwarmUnderFaults(spec, o.dwell, o.mode, o.worm, o.seed, level.Spec)
	if err != nil {
		return err
	}
	c := out.Cell
	fmt.Printf("=== %q worm over %s fleet (%d devices, dwell %v, mode %s, faults %s) ===\n\n",
		o.worm, c.Topology, spec.Size, c.Dwell, c.Mode, level.Name)
	for _, ev := range out.Events {
		fmt.Printf("  %12v  %-10s %s\n", ev.At, ev.Kind, ev.Detail)
	}
	fmt.Printf("\ninfected: %d/%d (saved %d)  blocked hops: %d  links cut: %d\n",
		c.Infected, spec.Size, c.Saved, c.Blocked, c.LinksCut)
	fmt.Printf("containment after %v; %d devices informed by gossip\n", c.Containment, c.Informed)
	return nil
}

// runRecovery closes the loop on one cell: the chosen wiring and fault
// level run through experiment E14's contain and recover modes, and
// the comparison row — devices saved, retries, gossip delivered versus
// dropped, time to full service — is printed.
func runRecovery(o options, spec scenario.TopologySpec, level cres.FaultLevel) error {
	res, err := cres.RunE14FaultRecovery(cres.E14Config{
		RootSeed:   o.seed,
		Topologies: []scenario.TopologySpec{spec},
		Dwell:      o.dwell,
		Levels:     []cres.FaultLevel{level},
		Payload:    o.worm,
	}, harness.NewPool(o.parallel))
	if err != nil {
		return err
	}
	fmt.Printf("=== closed-loop recovery: %q worm over %s fleet (%d devices, faults %s) ===\n\n",
		o.worm, spec.Kind, spec.Size, level.Name)
	fmt.Println(res.Table.Render())
	return nil
}

// parseTree parses the -tree value: "depth:fanout".
func parseTree(s string) (depth, fanout int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-tree %q: want depth:fanout (e.g. 2:4)", s)
	}
	if depth, err = strconv.Atoi(strings.TrimSpace(parts[0])); err != nil {
		return 0, 0, fmt.Errorf("-tree depth %q: %v", parts[0], err)
	}
	if fanout, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
		return 0, 0, fmt.Errorf("-tree fanout %q: %v", parts[1], err)
	}
	return depth, fanout, nil
}

// runTree is the hierarchical-verifier mode: attest the fleet through
// a depth × fanout verifier tree, print the operator-verified summary
// and the hierarchy's costs, then re-run with one mid-tier verifier
// forging its merged summary and print the detection.
func runTree(o options) error {
	depth, fanout, err := parseTree(o.tree)
	if err != nil {
		return err
	}
	ct, err := cres.E15TreeSpec(cres.E15Shape{Depth: depth, Fanout: fanout}).Compile()
	if err != nil {
		return err
	}
	tr, err := ct.Tree(o.seed)
	if err != nil {
		return err
	}
	pool := harness.NewPool(o.parallel)
	res, err := tr.Run(pool)
	if err != nil {
		return err
	}
	sum := res.Summary
	fmt.Printf("=== hierarchical attestation: depth %d, fanout %d — %d verifier leaves over %d devices ===\n\n",
		depth, fanout, tr.Leaves(), sum.Devices)
	fmt.Printf("tiers (leaves first): %v\n", tr.Tiers())
	fmt.Printf("devices: %d  tampered: %d  caught: %d  false alarms: %d\n",
		sum.Devices, sum.Tampered, sum.Caught, sum.FalseAlarms)
	fmt.Printf("completion: %v (virtual; flat shards finished at %v)\n", res.Completion, sum.Completion)
	fmt.Printf("signature checks: %d  max records held by one checker: %d\n\n", res.SigChecks, res.MaxHeld)

	// The demo forgery: the last tier-1 verifier signs a summary with
	// every compromise scrubbed.
	liar := fleet.NodeID{Tier: 1, Index: tr.Tiers()[1] - 1}
	forged, err := tr.RunForged(pool, fleet.Forge{Node: liar, Mode: fleet.ForgeSummary})
	if err != nil {
		return err
	}
	fmt.Printf("forgery demo: %s re-signs its merged summary with all %d caught compromises hidden\n", liar, sum.Caught)
	for _, det := range forged.Detections {
		fmt.Printf("  detected: %s caught by %s (%s) at %v — %v after the lie was signed\n",
			det.Liar, det.By, det.Kind, det.At, det.Lag)
	}
	if len(forged.Detections) == 0 {
		fmt.Println("  NOT DETECTED — hierarchy invariant broken")
	}
	return nil
}

// runFleet is the streaming-fleet smoke: a mixed fleet (three quarters
// sensors, one quarter gateways, each shape with its own tamper rate)
// attested end to end on the fleet engine, with the anomaly sample
// resolved back to shares through the engine's per-index functions.
func runFleet(o options) error {
	spec := scenario.FleetSpec{
		Name: "smoke",
		Size: o.fleet,
		Shares: []scenario.FleetShare{
			{Device: scenario.DeviceSpec{Name: "sensor"}, Fraction: 0.75, TamperRate: 0.02},
			{Device: scenario.DeviceSpec{Name: "gateway", FirmwareVersion: 2, FirmwarePayload: []byte("gateway firmware")}, Fraction: 0.25, TamperRate: 0.005},
		},
	}
	cf, err := spec.Compile()
	if err != nil {
		return err
	}
	eng, err := cf.Engine(o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("=== streaming fleet smoke: %d devices, %d shards, batches of %d ===\n\n",
		o.fleet, eng.NumShards(), eng.Config().BatchSize)

	sum, err := eng.RunParallel(harness.NewPool(o.parallel))
	if err != nil {
		return err
	}

	fmt.Printf("devices: %d  tampered: %d  caught: %d  false alarms: %d\n",
		sum.Devices, sum.Tampered, sum.Caught, sum.FalseAlarms)
	fmt.Printf("completion: %v (virtual)  mean latency: %v  p50: %v  p99: %v  max: %v\n\n",
		sum.Completion, sum.MeanLatency(), sum.Quantile(0.5), sum.Quantile(0.99), sum.MaxLatency)
	if len(sum.Sample) == 0 {
		fmt.Println("no anomalous devices sampled")
		return nil
	}
	// Anomalous = every non-healthy outcome: caught and missed tampered
	// devices plus false alarms.
	fmt.Printf("anomaly sample (%d of %d anomalous):\n", len(sum.Sample), sum.Tampered+sum.FalseAlarms)
	for _, a := range sum.Sample {
		share := cf.Config.Shares[eng.ShareOf(a.Index)]
		fmt.Printf("  device %-8d %-8s share=%s latency=%v\n",
			a.Index, fleet.ReasonString(a.Reason), share.Label, a.Latency)
	}
	return nil
}

func runOne(sc attack.Scenario, arch string, seed int64) error {
	fmt.Printf("=== scenario %s on %s architecture ===\n", sc.Name(), arch)
	fmt.Printf("    %s\n\n", sc.Description())

	r, err := cres.RunAttack(scenario.DeviceSpec{Name: "dut", Arch: arch, Seed: seed}, sc)
	if err != nil {
		return err
	}
	dev := r.Device()

	if dev.SSM != nil {
		fmt.Printf("health state: %s\n", dev.SSM.State())
		fmt.Printf("alerts handled: %d, responses fired: %d\n", dev.SSM.AlertsHandled(), dev.SSM.ResponsesFired())
		crit, up, total := dev.Degrader.UpCount()
		fmt.Printf("services: %d/%d up (critical up: %d), isolated: %v\n\n", up, total, crit, dev.Responder.Isolated())
		rep := dev.ForensicReport(r.LaunchAt, dev.Now())
		fmt.Println(rep.Render())
	} else {
		fmt.Printf("baseline architecture: no monitors, no security manager\n")
		fmt.Printf("plain log records: %d (boot only — the attack left no trace)\n\n", dev.PlainLog.Len())
	}
	return nil
}
