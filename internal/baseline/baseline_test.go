package baseline

import (
	"errors"
	"testing"
	"time"

	"cres/internal/response"
	"cres/internal/sim"
)

func newController(t *testing.T) (*sim.Engine, *Controller, *response.Degrader, *PlainLog) {
	t.Helper()
	e := sim.New(1)
	d, err := response.NewDegrader([]response.Service{
		{Name: "protection", Critical: true, Resources: []string{"core"}},
		{Name: "telemetry", Resources: []string{"core"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	log := &PlainLog{}
	return e, NewController(e, log, d), d, log
}

func TestPlainLogAppendErase(t *testing.T) {
	var l PlainLog
	for i := 0; i < 10; i++ {
		l.Append(sim.VirtualTime(i), "event")
	}
	if l.Len() != 10 {
		t.Fatal("len")
	}
	// Silent erasure: no error, no trace.
	l.Erase(3)
	if l.Len() != 3 {
		t.Fatalf("len after erase = %d", l.Len())
	}
	l.Erase(-1)
	if l.Len() != 0 {
		t.Fatal("negative keep should clear")
	}
}

func TestPlainLogWindow(t *testing.T) {
	var l PlainLog
	for i := 0; i < 10; i++ {
		l.Append(sim.VirtualTime(time.Duration(i)*time.Millisecond), "e")
	}
	w := l.Window(sim.VirtualTime(2*time.Millisecond), sim.VirtualTime(4*time.Millisecond))
	if len(w) != 3 {
		t.Fatalf("window = %d", len(w))
	}
	if len(l.Entries()) != 10 {
		t.Fatal("entries")
	}
}

func TestRebootTakesEverythingDown(t *testing.T) {
	e, c, d, log := newController(t)
	if !d.CriticalUp() {
		t.Fatal("setup")
	}
	var completed bool
	if err := c.Reboot("watchdog bite", func() { completed = true }); err != nil {
		t.Fatal(err)
	}
	if !c.Rebooting() {
		t.Fatal("not rebooting")
	}
	// Mid-reboot: ALL services down, including critical — the paper's
	// critique of reboot-as-response.
	if d.CriticalUp() {
		t.Fatal("critical service survived reboot (baseline can't do that)")
	}
	e.RunFor(RebootDuration / 2)
	if completed {
		t.Fatal("completed too early")
	}
	e.RunFor(RebootDuration/2 + time.Millisecond)
	if !completed {
		t.Fatal("reboot never completed")
	}
	if !d.CriticalUp() {
		t.Fatal("services not restored after reboot")
	}
	if c.Reboots() != 1 {
		t.Fatal("reboot count")
	}
	if log.Len() != 2 {
		t.Fatalf("log = %+v", log.Entries())
	}
}

func TestOverlappingRebootRejected(t *testing.T) {
	e, c, _, _ := newController(t)
	if err := c.Reboot("first", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Reboot("second", nil); !errors.Is(err, ErrRebootInProgress) {
		t.Fatalf("err = %v", err)
	}
	e.RunFor(2 * RebootDuration)
	if err := c.Reboot("third", nil); err != nil {
		t.Fatalf("reboot after completion rejected: %v", err)
	}
}

func TestDefaultRebootDuration(t *testing.T) {
	e := sim.New(1)
	d, _ := response.NewDegrader(nil)
	c := NewController(e, &PlainLog{}, d)
	done := false
	c.Reboot("x", func() { done = true })
	e.RunFor(499 * time.Millisecond)
	if done {
		t.Fatal("reboot faster than 500ms")
	}
	e.RunFor(2 * time.Millisecond)
	if !done {
		t.Fatal("reboot not finished after 500ms")
	}
}
