package scenario

import (
	"math"
	"strings"
	"testing"
	"time"
)

// Native go-fuzz targets for the declarative layer's two parser/
// validator surfaces: the "scenario@delay*N" stage syntax that reaches
// ParsePlans straight from the -plan CLI flag, and the spec Compile
// functions that turn arbitrary field values into runnable
// configurations. The contract under fuzzing is uniform: hostile input
// may be rejected with an error, but must never panic, and anything
// Compile accepts must satisfy the compiled invariants (delays within
// the horizon, defaults filled, fractions sane).
//
// Seed corpora live under testdata/fuzz/<Target>/; CI runs each target
// for a 30s smoke (see .github/workflows/ci.yml), and
// `go test -fuzz FuzzPlanStageSyntax ./internal/scenario` digs deeper
// locally. New crashers are written to testdata/fuzz automatically —
// commit them as regression seeds after fixing.

func FuzzPlanStageSyntax(f *testing.F) {
	for _, seed := range []string{
		"",
		"none",
		"implant-persist",
		"recon-exfil-wipe,network-takeover",
		"secure-probe@0,log-wipe@10ms*3",
		"code-injection@5ms,bus-flood@12ms",
		"firmware-tamper@1h",            // at the horizon boundary
		"log-wipe@10ms*9223372036854",   // repeat × gap overflow
		"bus-flood@-5ms",                // negative delay
		"m2m-mitm@3ms*-2",               // negative repeat
		"@5ms",                          // no scenario name
		"secure-probe@",                 // empty delay
		"secure-probe@0*",               // empty repeat
		"secure-probe@0*x",              // junk repeat
		"secure-probe@5mss",             // junk duration
		" , ,, ",                        // separators only
		"a@1ns*1,b@2ns*2,c@3ns*3,d@4ns", // unknown scenarios
		"secure-probe@106751d",          // duration overflow territory
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// The full CLI path first: -plan values route through ParsePlans,
		// which dispatches between built-in names and stage syntax.
		if plans, err := ParsePlans(s); err == nil {
			for _, p := range plans {
				compileAndCheckPlan(t, s, p)
			}
		}
		// And the stage-syntax parser directly, so inputs without an "@"
		// still exercise it.
		plan, err := ParsePlanStages("fuzz", s)
		if err != nil {
			return
		}
		if len(plan.Stages) == 0 {
			t.Fatalf("ParsePlanStages(%q) returned a plan with no stages and no error", s)
		}
		compileAndCheckPlan(t, s, plan)
	})
}

// compileAndCheckPlan compiles a parsed plan and checks the compiled
// invariants. Compile errors are fine (unknown scenarios, bad
// schedules); inconsistent successes are not.
func compileAndCheckPlan(t *testing.T, input string, p AttackPlan) {
	t.Helper()
	cp, err := p.Compile()
	if err != nil {
		return
	}
	if h := cp.Horizon(); h < 0 || h > MaxPlanHorizon {
		t.Fatalf("input %q: compiled plan %q has horizon %v outside [0, %v]", input, p.Name, h, MaxPlanHorizon)
	}
	for i, st := range cp.Plan.Stages {
		if st.Delay < 0 {
			t.Fatalf("input %q: compiled stage %d has negative delay %v", input, i, st.Delay)
		}
	}
	if cp.Scenario() == nil {
		t.Fatalf("input %q: compiled plan %q has no launchable scenario", input, p.Name)
	}
}

func FuzzFaultSpecCompile(f *testing.F) {
	add := func(drop, dup, reorder float64, rdelay int64, crash float64, cwin, outage int64, vout int, vevery, vlen, seed int64) {
		f.Add(drop, dup, reorder, rdelay, crash, cwin, outage, vout, vevery, vlen, seed)
	}
	add(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	add(0.1, 0.1, 0.2, int64(time.Millisecond), 0.3, int64(30*time.Millisecond), int64(5*time.Millisecond), 2, 0, 0, 9)
	add(math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)       // NaN rate
	add(0, math.Inf(1), 0, 0, 0, 0, 0, 0, 0, 0, 1)      // Inf rate
	add(-0.5, 0, -1, -5, -0.25, -1, -1, -3, -1, -1, -7) // negative everything
	add(0.999, 1, 1, int64(time.Second), 1, 1<<40, 1, 12, int64(time.Second), int64(time.Millisecond), 3)
	add(1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)                                           // drop rate 1.0 erases the fabric
	add(0, 0, 0.5, 1<<62, 0, 0, 0, 0, 0, 0, 0)                                       // delay overflow territory
	add(0, 0, 0, 0, 0, 0, 0, 1, int64(time.Millisecond), int64(time.Millisecond), 0) // outage >= period
	f.Fuzz(func(t *testing.T, drop, dup, reorder float64, rdelay int64, crash float64, cwin, outage int64, vout int, vevery, vlen, seed int64) {
		spec := FaultSpec{
			Drop: drop, Duplicate: dup, Reorder: reorder,
			ReorderDelay:    time.Duration(rdelay),
			CrashFraction:   crash,
			CrashWindow:     time.Duration(cwin),
			RebootOutage:    time.Duration(outage),
			VerifierOutages: vout, VerifierOutageEvery: time.Duration(vevery), VerifierOutageLen: time.Duration(vlen),
			Seed: seed,
		}
		p, err := spec.Compile()
		if err != nil {
			return
		}
		// Compiled invariants: rates finite and in range, durations
		// non-negative and bounded, defaults filled wherever the fault
		// they parameterise is on.
		for _, r := range []float64{p.Link.Drop, p.Link.Duplicate, p.Link.Reorder, p.Churn.CrashFraction} {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > 1 {
				t.Fatalf("compiled rate %v out of range: %+v", r, p)
			}
		}
		if (p.Link.Duplicate > 0 || p.Link.Reorder > 0) && p.Link.ReorderDelay <= 0 {
			t.Fatalf("reorder delay unfilled: %+v", p.Link)
		}
		if p.Churn.CrashFraction > 0 && (p.Churn.CrashWindow <= 0 || p.Churn.RebootOutage <= 0) {
			t.Fatalf("churn defaults unfilled: %+v", p.Churn)
		}
		// The plan must be expandable without panicking, and every fate
		// and crash it derives must be sane.
		in := p.NewInjector()
		for i := 0; i < 50; i++ {
			fate := in.Fate("node-00", "node-01")
			if len(fate.Deliveries) > 2 {
				t.Fatalf("fate with %d copies", len(fate.Deliveries))
			}
			for _, d := range fate.Deliveries {
				if d < 0 || d > 2*MaxFaultDelay {
					t.Fatalf("fate delay %v out of range", d)
				}
			}
		}
		for _, c := range p.CrashSchedule(32) {
			if c.Device < 0 || c.Device >= 32 || c.At < 0 || c.Back < c.At {
				t.Fatalf("crash %+v out of range", c)
			}
		}
		for attempt := 0; attempt <= 4; attempt++ {
			if d := p.Backoff("fuzz", attempt); d <= 0 {
				t.Fatalf("backoff attempt %d nonpositive: %v", attempt, d)
			}
		}
		p.VerifierDown(0)
		p.VerifierDown(time.Hour)
	})
}

func FuzzScenarioCompile(f *testing.F) {
	add := func(name, arch, detection, monitors string, fwVersion uint64, size int64, fracA, rateA float64, every int) {
		f.Add(name, arch, detection, monitors, fwVersion, size, fracA, rateA, every)
	}
	add("dut", "cres", "combined", "", 1, 512, 0.5, 0, 8)
	add("dut", "baseline", "signature-only", "bus,cfi", 2, 4096, 0.25, 0.5, 0)
	add("", "tofu", "anomaly-only", "bus,bus", 0, 0, 0.75, 1, -3)
	add("x", "", "", "net,timing,env", 9, 1, 1, 0.001, 1)
	add("nan", "cres", "", "", 1, 100, 0.0, -1, 0)       // fraction sums to 0.5
	add("inf", "cres", "", "", 1, 100, 1e308, 2, 0)      // non-finite sums
	add("tiny", "cres", "", "", 1, 1, 0.5000001, 0.5, 0) // off-by-epsilon fractions
	f.Fuzz(func(t *testing.T, name, arch, detection, monitors string, fwVersion uint64, size int64, fracA, rateA float64, every int) {
		spec := DeviceSpec{
			Name:            name,
			Arch:            arch,
			Detection:       detection,
			FirmwareVersion: fwVersion,
		}
		if monitors != "" {
			spec.Monitors = strings.Split(monitors, ",")
		}
		cd, err := spec.Compile()
		if err == nil {
			// Compiled devices have every defaultable field filled.
			if cd.Spec.Arch != ArchCRES && cd.Spec.Arch != ArchBaseline {
				t.Fatalf("compiled device has arch %q", cd.Spec.Arch)
			}
			if cd.Spec.FirmwarePayload == nil || cd.Spec.FirmwareVersion == 0 {
				t.Fatalf("compiled device has unfilled defaults: %+v", cd.Spec)
			}
		}

		// The fleet spec reuses the device spec and adds float fractions
		// and rates — the classic NaN/Inf validation trap.
		fs := FleetSpec{
			Name: name,
			Size: int(size),
			Shares: []FleetShare{
				{Device: DeviceSpec{Name: "a"}, Fraction: fracA, TamperRate: rateA},
				{Device: spec, Fraction: 1 - fracA},
			},
			TamperEvery: every,
		}
		cf, err := fs.Compile()
		if err != nil {
			return
		}
		if cf.Config.Size != int(size) || len(cf.Config.Shares) != 2 {
			t.Fatalf("compiled fleet diverges from spec: %+v", cf.Config)
		}
		if cf.Config.BatchSize <= 0 || cf.Config.ShardSize < cf.Config.BatchSize || cf.Config.SampleK <= 0 {
			t.Fatalf("compiled fleet has unfilled defaults: %+v", cf.Config)
		}
		// A compiled fleet must be runnable: the engine accepts it and
		// classifies any index without panicking. Compile validates
		// through fleet.Config.Normalize and builds no engine, so this
		// is the check that a config which normalizes also builds.
		eng, err := cf.Engine(7)
		if err != nil {
			t.Fatalf("compiled fleet rejected by engine: %v", err)
		}
		for _, i := range []int{0, cf.Config.Size - 1} {
			if s := eng.ShareOf(i); s < 0 || s >= 2 {
				t.Fatalf("device %d assigned to share %d", i, s)
			}
			eng.Tampered(i)
		}
	})
}
