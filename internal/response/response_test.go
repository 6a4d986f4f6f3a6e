package response

import (
	"errors"
	"testing"

	"cres/internal/hw"
	"cres/internal/sim"
)

func newRig(t *testing.T) (*sim.Engine, *hw.SoC, *Manager, *[]Action) {
	t.Helper()
	e := sim.New(1)
	soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	var actions []Action
	m := NewManager(e, soc.Bus, soc.Cache, func(a Action) { actions = append(actions, a) })
	return e, soc, m, &actions
}

func TestIsolateInitiatorBlocksTraffic(t *testing.T) {
	_, soc, m, actions := newRig(t)
	if _, err := soc.AppCore.Read(hw.AddrSRAM, 4); err != nil {
		t.Fatalf("pre-isolation read failed: %v", err)
	}
	if err := m.IsolateInitiator("app-core", "cfi violation"); err != nil {
		t.Fatal(err)
	}
	if _, err := soc.AppCore.Read(hw.AddrSRAM, 4); err == nil {
		t.Fatal("isolated core still reads")
	} else if f, _ := hw.AsFault(err); f.Code != hw.FaultBlocked {
		t.Fatalf("fault = %v", err)
	}
	// Other initiators unaffected.
	if _, err := soc.SSMCore.Read(hw.AddrSRAM, 4); err != nil {
		t.Fatalf("ssm core blocked: %v", err)
	}
	if !m.IsIsolated("app-core") {
		t.Fatal("IsIsolated = false")
	}
	if len(m.Isolated()) != 1 || m.Isolated()[0] != "app-core" {
		t.Fatalf("Isolated() = %v", m.Isolated())
	}
	if len(*actions) != 1 || (*actions)[0].Kind != ActIsolate {
		t.Fatalf("actions = %+v", *actions)
	}
}

func TestIsolateTwiceFails(t *testing.T) {
	_, _, m, _ := newRig(t)
	if err := m.IsolateInitiator("x", "r"); err != nil {
		t.Fatal(err)
	}
	if err := m.IsolateInitiator("x", "r"); !errors.Is(err, ErrAlreadyIsolated) {
		t.Fatalf("err = %v", err)
	}
}

func TestRestoreInitiator(t *testing.T) {
	_, soc, m, _ := newRig(t)
	m.IsolateInitiator("app-core", "suspicious")
	if err := m.RestoreInitiator("app-core", "recovered"); err != nil {
		t.Fatal(err)
	}
	if _, err := soc.AppCore.Read(hw.AddrSRAM, 4); err != nil {
		t.Fatalf("restored core still blocked: %v", err)
	}
	if err := m.RestoreInitiator("app-core", "again"); !errors.Is(err, ErrNotIsolated) {
		t.Fatalf("err = %v", err)
	}
}

func TestHaltResumeCore(t *testing.T) {
	_, soc, m, actions := newRig(t)
	m.HaltCore(soc.AppCore, "containment")
	if !soc.AppCore.Halted() {
		t.Fatal("core not halted")
	}
	m.ResumeCore(soc.AppCore, "recovered")
	if soc.AppCore.Halted() {
		t.Fatal("core not resumed")
	}
	if len(*actions) != 2 {
		t.Fatalf("actions = %+v", *actions)
	}
}

func TestLockActuator(t *testing.T) {
	_, _, m, _ := newRig(t)
	a := hw.NewActuator("breaker", 0)
	m.LockActuator(a, "spoofed commands")
	cmd := a.Apply(0, 99)
	if !cmd.Forced {
		t.Fatal("actuator not locked")
	}
}

func TestCacheCountermeasures(t *testing.T) {
	_, soc, m, _ := newRig(t)
	soc.Cache.Access(0, hw.WorldNormal)
	m.FlushCache("purge covert channel")
	if _, hit := soc.Cache.Access(0, hw.WorldNormal); hit {
		t.Fatal("cache not flushed")
	}
	m.PartitionCache("close covert channel")
	if !soc.Cache.Partitioned() {
		t.Fatal("cache not partitioned")
	}
}

func TestActionKindStrings(t *testing.T) {
	want := map[ActionKind]string{
		ActIsolate:        "isolate",
		ActRestore:        "restore",
		ActHaltCore:       "halt-core",
		ActResumeCore:     "resume-core",
		ActLockActuator:   "lock-actuator",
		ActFlushCache:     "flush-cache",
		ActPartitionCache: "partition-cache",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
}

func TestHistoryCopies(t *testing.T) {
	_, _, m, _ := newRig(t)
	m.IsolateInitiator("a", "r")
	h := m.History()
	if len(h) != 1 {
		t.Fatalf("history = %+v", h)
	}
	h[0].Target = "mutated"
	if m.History()[0].Target != "a" {
		t.Fatal("History not a copy")
	}
}

func testServices() []Service {
	return []Service{
		{Name: "grid-protection", Critical: true, Resources: []string{"app-core", "breaker"}, Fallbacks: []string{"backup-core"}},
		{Name: "telemetry", Critical: false, Resources: []string{"app-core", "net0"}},
		{Name: "billing", Critical: false, Resources: []string{"net0"}},
		{Name: "local-display", Critical: false, Resources: []string{"display"}},
	}
}

func TestDegraderResourceDownShedsNonCritical(t *testing.T) {
	d, err := NewDegrader(testServices())
	if err != nil {
		t.Fatal(err)
	}
	// Compromise app-core: telemetry (non-critical) goes down;
	// grid-protection survives on its fallback core.
	stopped := d.ResourceDown("app-core")
	if len(stopped) != 1 || stopped[0] != "telemetry" {
		t.Fatalf("stopped = %v", stopped)
	}
	up, err := d.Up("grid-protection")
	if err != nil || !up {
		t.Fatal("critical service went down despite fallback")
	}
	fb, _ := d.UsingFallback("grid-protection")
	if !fb {
		t.Fatal("critical service not marked on fallback")
	}
	if !d.CriticalUp() {
		t.Fatal("CriticalUp = false")
	}
	crit, upN, total := d.UpCount()
	if crit != 1 || upN != 3 || total != 4 {
		t.Fatalf("UpCount = %d, %d, %d", crit, upN, total)
	}
}

func TestDegraderCriticalFailsWithoutFallback(t *testing.T) {
	d, err := NewDegrader(testServices())
	if err != nil {
		t.Fatal(err)
	}
	d.ResourceDown("app-core")
	d.ResourceDown("backup-core") // fallback also lost
	if d.CriticalUp() {
		t.Fatal("critical service survives with no resources")
	}
}

func TestDegraderResourceUpRestores(t *testing.T) {
	d, err := NewDegrader(testServices())
	if err != nil {
		t.Fatal(err)
	}
	d.ResourceDown("net0")
	up, _ := d.Up("billing")
	if up {
		t.Fatal("billing should be down")
	}
	restored := d.ResourceUp("net0")
	if len(restored) != 2 { // telemetry and billing both depend on net0
		t.Fatalf("restored = %v", restored)
	}
	up, _ = d.Up("billing")
	if !up {
		t.Fatal("billing not restored")
	}
}

func TestDegraderStopStartAll(t *testing.T) {
	d, err := NewDegrader(testServices())
	if err != nil {
		t.Fatal(err)
	}
	stopped := d.StopAll()
	if len(stopped) != 4 {
		t.Fatalf("stopped = %v", stopped)
	}
	if d.CriticalUp() {
		t.Fatal("critical up after StopAll")
	}
	started := d.StartAll()
	if len(started) != 4 {
		t.Fatalf("started = %v", started)
	}
	snap := d.Snapshot()
	for name, up := range snap {
		if !up {
			t.Fatalf("service %s not up after StartAll", name)
		}
	}
}

func TestDegraderValidation(t *testing.T) {
	if _, err := NewDegrader([]Service{{Name: ""}}); err == nil {
		t.Fatal("unnamed service accepted")
	}
	if _, err := NewDegrader([]Service{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate service accepted")
	}
	d, _ := NewDegrader(nil)
	if _, err := d.Up("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatal("unknown service lookup")
	}
	if _, err := d.UsingFallback("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatal("unknown service fallback lookup")
	}
}

func TestDegraderNonCriticalNeverUsesFallback(t *testing.T) {
	d, err := NewDegrader([]Service{
		{Name: "nc", Critical: false, Resources: []string{"r1"}, Fallbacks: []string{"r2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stopped := d.ResourceDown("r1")
	if len(stopped) != 1 {
		t.Fatal("non-critical service used fallback (policy violation)")
	}
}
