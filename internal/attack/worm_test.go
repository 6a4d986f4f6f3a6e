package attack

import (
	"testing"
	"time"

	"cres/internal/sim"
)

// launchCounter is a payload that records which engines it launched on.
type launchCounter struct {
	launches *int
}

func (launchCounter) Name() string                 { return "counter" }
func (launchCounter) Description() string          { return "test payload" }
func (launchCounter) ExpectedSignatures() []string { return []string{"test.sig"} }
func (c launchCounter) Launch(tgt *Target) error {
	*c.launches++
	return nil
}

// stubFleet wires a line topology 0-1-2-...-n over one engine, with a
// settable link-down set.
type stubFleet struct {
	engine *sim.Engine
	n      int
	down   map[[2]int]bool
}

func newStubFleet(n int) *stubFleet {
	return &stubFleet{engine: sim.New(1), n: n, down: make(map[[2]int]bool)}
}

func (f *stubFleet) cut(i, j int) {
	if i > j {
		i, j = j, i
	}
	f.down[[2]int{i, j}] = true
}

func (f *stubFleet) Size() int { return f.n }
func (f *stubFleet) Neighbors(i int) []int {
	var out []int
	if i > 0 {
		out = append(out, i-1)
	}
	if i < f.n-1 {
		out = append(out, i+1)
	}
	return out
}
func (f *stubFleet) Target(i int) *Target { return &Target{Engine: f.engine} }
func (f *stubFleet) LinkUp(i, j int) bool {
	if i > j {
		i, j = j, i
	}
	return !f.down[[2]int{i, j}]
}

// recorder captures observer callbacks in order.
type recorder struct {
	infected [][2]int // device, hop
	blocked  [][2]int // from, to
}

func (r *recorder) Infected(device, hop int) { r.infected = append(r.infected, [2]int{device, hop}) }
func (r *recorder) Blocked(from, to int)     { r.blocked = append(r.blocked, [2]int{from, to}) }

func TestWormSpreadsOverLine(t *testing.T) {
	f := newStubFleet(5)
	launches := 0
	w := Worm{PlanName: "w", Payload: launchCounter{&launches}, Dwell: time.Millisecond}
	var rec recorder
	o, err := w.LaunchFleet(f, 2, &rec)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(10 * time.Millisecond)

	if o.Infections() != 5 || launches != 5 {
		t.Fatalf("infections=%d launches=%d, want 5/5", o.Infections(), launches)
	}
	// Patient zero in the middle: hop distance is |i-2|.
	for i := 0; i < 5; i++ {
		if !o.IsInfected(i) {
			t.Fatalf("device %d not infected", i)
		}
		want := i - 2
		if want < 0 {
			want = -want
		}
		if o.Hop(i) != want {
			t.Errorf("device %d hop=%d, want %d", i, o.Hop(i), want)
		}
	}
	// Farthest devices (0 and 4) infect at 2 dwells.
	if o.LastActivity() != 2*time.Millisecond {
		t.Errorf("last activity %v, want 2ms", o.LastActivity())
	}
	if len(rec.infected) != 5 || rec.infected[0] != [2]int{2, 0} {
		t.Errorf("observer infections %v", rec.infected)
	}
	if o.Blocked() != 0 || len(rec.blocked) != 0 {
		t.Errorf("blocked=%d on an open fleet", o.Blocked())
	}
}

func TestWormBlockedByDownLink(t *testing.T) {
	f := newStubFleet(5)
	f.cut(1, 2)
	launches := 0
	w := Worm{PlanName: "w", Payload: launchCounter{&launches}, Dwell: time.Millisecond}
	var rec recorder
	o, err := w.LaunchFleet(f, 0, &rec)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(10 * time.Millisecond)

	if o.Infections() != 2 {
		t.Fatalf("infections=%d, want 2 (cut at 1-2)", o.Infections())
	}
	if o.IsInfected(2) || o.IsInfected(3) || o.IsInfected(4) {
		t.Fatal("worm crossed a down link")
	}
	if o.Blocked() != 1 || len(rec.blocked) != 1 || rec.blocked[0] != [2]int{1, 2} {
		t.Fatalf("blocked=%d events=%v, want one 1->2 block", o.Blocked(), rec.blocked)
	}
	// Containment = the blocked attempt at 2 dwells.
	if o.LastActivity() != 2*time.Millisecond {
		t.Errorf("last activity %v, want 2ms", o.LastActivity())
	}
}

func TestWormMaxInfections(t *testing.T) {
	f := newStubFleet(10)
	launches := 0
	w := Worm{PlanName: "w", Payload: launchCounter{&launches}, Dwell: time.Millisecond, MaxInfections: 3}
	o, err := w.LaunchFleet(f, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(50 * time.Millisecond)
	if o.Infections() != 3 || launches != 3 {
		t.Fatalf("infections=%d launches=%d, want bound of 3", o.Infections(), launches)
	}
}

func TestWormLaunchErrors(t *testing.T) {
	f := newStubFleet(3)
	launches := 0
	payload := launchCounter{&launches}
	if _, err := (Worm{PlanName: "w"}).LaunchFleet(f, 0, nil); err == nil {
		t.Error("worm with no payload launched")
	}
	if _, err := (Worm{PlanName: "w", Payload: payload}).LaunchFleet(f, 7, nil); err == nil {
		t.Error("patient zero outside the fleet launched")
	}
	if _, err := (Worm{PlanName: "w", Payload: payload}).LaunchFleet(nil, 0, nil); err == nil {
		t.Error("nil fleet launched")
	}
}

// TestWormReinfectsRecoveredDevice pins the re-infection contract: a
// recovered device is susceptible again, a still-infected neighbour's
// next propagation re-infects it as a fresh hop, and the bookkeeping
// separates cumulative events from distinct victims.
func TestWormReinfectsRecoveredDevice(t *testing.T) {
	f := newStubFleet(3)
	// Isolate device 2 so the outbreak is exactly {0, 1}.
	f.cut(1, 2)
	launches := 0
	w := Worm{PlanName: "w", Payload: launchCounter{&launches}, Dwell: time.Millisecond}
	var rec recorder
	o, err := w.LaunchFleet(f, 0, &rec)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(10 * time.Millisecond)
	if o.Infections() != 2 || o.ActiveInfections() != 2 || o.EverInfections() != 2 {
		t.Fatalf("outbreak shape: infections=%d active=%d ever=%d", o.Infections(), o.ActiveInfections(), o.EverInfections())
	}

	// Recover device 1 while 0 stays infected, then let 0 propagate
	// again (re-launch the worm's spread by scheduling through infect's
	// public surface: a fresh LaunchFleet is not needed — device 0's
	// original propagation already fired, so we simulate the periodic
	// re-propagation E14's still-infected devices produce by recovering
	// and re-running the dwell via a second outbreak step).
	if !o.MarkRecovered(1) {
		t.Fatal("MarkRecovered(1) cleared nothing")
	}
	if o.MarkRecovered(1) {
		t.Fatal("MarkRecovered(1) cleared twice")
	}
	if o.ActiveInfections() != 1 || o.Recovered() != 1 {
		t.Fatalf("after recovery: active=%d recovered=%d", o.ActiveInfections(), o.Recovered())
	}
	if o.IsInfected(1) {
		t.Fatal("recovered device still reads infected")
	}

	// A new propagation attempt from 0 re-infects 1 as a new hop: the
	// seen-set must not absorb it, and the distinct-victim bound (3 on
	// this fleet, unhit) must not block it.
	if err := o.Propagate(0); err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(10 * time.Millisecond)
	if !o.IsInfected(1) {
		t.Fatal("recovered device not re-infected")
	}
	if o.Infections() != 3 || o.EverInfections() != 2 || o.Reinfections() != 1 {
		t.Fatalf("after reinfection: infections=%d ever=%d reinf=%d", o.Infections(), o.EverInfections(), o.Reinfections())
	}
	if o.Hop(1) != 1 {
		t.Fatalf("re-infection hop = %d, want a fresh hop of 1", o.Hop(1))
	}
	if launches != 3 {
		t.Fatalf("payload launched %d times, want 3 (re-infection re-launches)", launches)
	}
	// The observer saw the re-infection as a regular infection event.
	if len(rec.infected) != 3 || rec.infected[2] != [2]int{1, 1} {
		t.Fatalf("observer infections %v", rec.infected)
	}
}

// TestWormReinfectionRespectsDistinctVictimBound: MaxInfections counts
// distinct devices, so recover-and-reinfect inside the bound works, but
// the bound still stops the worm reaching new devices.
func TestWormReinfectionRespectsDistinctVictimBound(t *testing.T) {
	f := newStubFleet(10)
	launches := 0
	w := Worm{PlanName: "w", Payload: launchCounter{&launches}, Dwell: time.Millisecond, MaxInfections: 3}
	o, err := w.LaunchFleet(f, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(50 * time.Millisecond)
	if o.EverInfections() != 3 {
		t.Fatalf("ever=%d, want bound of 3", o.EverInfections())
	}
	o.MarkRecovered(1)
	if err := o.Propagate(0); err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(50 * time.Millisecond)
	// Device 1 re-infected (already a victim), but the bound still
	// holds: no fourth distinct device.
	if !o.IsInfected(1) {
		t.Fatal("in-bound re-infection blocked")
	}
	if o.EverInfections() != 3 || o.Reinfections() != 1 {
		t.Fatalf("ever=%d reinf=%d after reinfection", o.EverInfections(), o.Reinfections())
	}
}
