package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.MustSchedule(30*time.Microsecond, func() { got = append(got, 3) })
	e.MustSchedule(10*time.Microsecond, func() { got = append(got, 1) })
	e.MustSchedule(20*time.Microsecond, func() { got = append(got, 2) })
	e.Drain(100)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Drain(100)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := New(1)
	var at VirtualTime
	e.MustSchedule(42*time.Microsecond, func() { at = e.Now() })
	if !e.Step() {
		t.Fatal("Step() = false, want true")
	}
	if at != VirtualTime(42*time.Microsecond) {
		t.Fatalf("event ran at %v, want 42µs", at)
	}
	if e.Now() != at {
		t.Fatalf("Now() = %v, want %v", e.Now(), at)
	}
}

func TestScheduleNegativeDelay(t *testing.T) {
	e := New(1)
	if _, err := e.Schedule(-time.Nanosecond, func() {}); err == nil {
		t.Fatal("Schedule(-1ns) error = nil, want ErrPastTime")
	}
}

func TestScheduleAtPast(t *testing.T) {
	e := New(1)
	e.MustSchedule(time.Millisecond, func() {})
	e.Step()
	if _, err := e.ScheduleAt(0, func() {}); err == nil {
		t.Fatal("ScheduleAt(past) error = nil, want ErrPastTime")
	}
}

func TestScheduleNilFunc(t *testing.T) {
	e := New(1)
	if _, err := e.Schedule(time.Millisecond, nil); err == nil {
		t.Fatal("Schedule(nil fn) error = nil, want error")
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	ran := false
	id := e.MustSchedule(time.Millisecond, func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel = false, want true")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel = true, want false")
	}
	e.Drain(10)
	if ran {
		t.Fatal("cancelled event still ran")
	}
}

func TestCancelAfterRun(t *testing.T) {
	e := New(1)
	id := e.MustSchedule(time.Millisecond, func() {})
	e.Step()
	if e.Cancel(id) {
		t.Fatal("Cancel after dispatch = true, want false")
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := New(1)
	e.RunUntil(VirtualTime(5 * time.Millisecond))
	if e.Now() != VirtualTime(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
}

func TestRunUntilStopsBeforeLaterEvents(t *testing.T) {
	e := New(1)
	ran := false
	e.MustSchedule(10*time.Millisecond, func() { ran = true })
	e.RunUntil(VirtualTime(5 * time.Millisecond))
	if ran {
		t.Fatal("event beyond deadline ran")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunFor(10 * time.Millisecond)
	if !ran {
		t.Fatal("event within extended deadline did not run")
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := New(1)
	e.RunFor(time.Millisecond)
	e.RunFor(time.Millisecond)
	if e.Now() != VirtualTime(2*time.Millisecond) {
		t.Fatalf("Now() = %v, want 2ms", e.Now())
	}
}

func TestDrainLimit(t *testing.T) {
	e := New(1)
	var rearm func()
	n := 0
	rearm = func() {
		n++
		e.MustSchedule(time.Microsecond, rearm)
	}
	e.MustSchedule(time.Microsecond, rearm)
	dispatched := e.Drain(50)
	if dispatched != 50 {
		t.Fatalf("Drain(50) = %d, want 50", dispatched)
	}
	if n != 50 {
		t.Fatalf("self-rescheduling event ran %d times, want 50", n)
	}
}

func TestDeterministicRNG(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.RNG().Int63() != b.RNG().Int63() {
			t.Fatal("engines with same seed diverged")
		}
	}
}

func TestTicker(t *testing.T) {
	e := New(1)
	var ticks []VirtualTime
	tk, err := NewTicker(e, time.Millisecond, func(at VirtualTime) { ticks = append(ticks, at) })
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(5500 * time.Microsecond)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		want := VirtualTime(time.Duration(i+1) * time.Millisecond)
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	tk.Stop()
	e.RunFor(10 * time.Millisecond)
	if len(ticks) != 5 {
		t.Fatalf("ticker fired after Stop: %d ticks", len(ticks))
	}
	if !tk.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	e := New(1)
	tk, err := NewTicker(e, time.Millisecond, func(VirtualTime) {})
	if err != nil {
		t.Fatal(err)
	}
	tk.Stop()
	tk.Stop() // must not panic
}

func TestTickerStopFromCallback(t *testing.T) {
	e := New(1)
	n := 0
	var tk *Ticker
	tk, err := NewTicker(e, time.Millisecond, func(VirtualTime) {
		n++
		tk.Stop()
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(10 * time.Millisecond)
	if n != 1 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 1", n)
	}
}

func TestTickerRejectsBadArgs(t *testing.T) {
	e := New(1)
	if _, err := NewTicker(e, 0, func(VirtualTime) {}); err == nil {
		t.Fatal("NewTicker(period=0) error = nil")
	}
	if _, err := NewTicker(e, time.Second, nil); err == nil {
		t.Fatal("NewTicker(fn=nil) error = nil")
	}
}

func TestVirtualTimeArithmetic(t *testing.T) {
	t0 := VirtualTime(1000)
	t1 := t0.Add(500 * time.Nanosecond)
	if t1 != 1500 {
		t.Fatalf("Add = %d, want 1500", t1)
	}
	if d := t1.Sub(t0); d != 500*time.Nanosecond {
		t.Fatalf("Sub = %v, want 500ns", d)
	}
	if t1.Duration() != 1500*time.Nanosecond {
		t.Fatalf("Duration = %v", t1.Duration())
	}
}

// Property: for any set of non-negative delays, events dispatch in
// non-decreasing time order and the clock never moves backwards.
func TestPropertyMonotonicDispatch(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		e := New(3)
		var seen []VirtualTime
		for _, d := range delaysRaw {
			e.MustSchedule(time.Duration(d)*time.Microsecond, func() {
				seen = append(seen, e.Now())
			})
		}
		e.Drain(uint64(len(delaysRaw)) + 1)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delaysRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// dispatch records one dispatched event: which scheduled callback ran,
// and when.
type dispatch struct {
	at    VirtualTime
	index int
}

// Property: two engines with the same seed and same schedule dispatch
// the same callbacks in the same order at the same instants.
func TestPropertyDeterminism(t *testing.T) {
	f := func(delays []uint16, seed int64) bool {
		run := func() []dispatch {
			e := New(seed)
			var tr []dispatch
			for i, d := range delays {
				jitter := time.Duration(e.RNG().Intn(100)) * time.Nanosecond
				e.MustSchedule(time.Duration(d)*time.Microsecond+jitter, func() {
					tr = append(tr, dispatch{e.Now(), i})
				})
			}
			e.Drain(uint64(len(delays)) + 1)
			return tr
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
