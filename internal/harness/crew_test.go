package harness

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestCrewRunsEachTaskOnce runs stages of n = 0, 1 and many tasks on
// crews of every shape, several stages per crew so that wake-ups left
// over from one stage meet the next. Every task must run exactly once
// per stage, on a worker the crew can name; each worker's counter is a
// plain int, so under -race two concurrent tasks sharing a worker
// would be reported. The first Workers() tasks of a stage wait for one
// another, so every helper must claim one of them: the stage cannot be
// run by the caller alone.
func TestCrewRunsEachTaskOnce(t *testing.T) {
	for _, helpers := range []int{-1, 0, 1, 3} { // -1: a nil crew
		t.Run(fmt.Sprintf("helpers=%d", helpers), func(t *testing.T) {
			var c *Crew
			if helpers >= 0 {
				c = NewCrew(helpers)
				defer c.Stop()
			}
			if want := max(helpers, 0) + 1; c.Workers() != want {
				t.Fatalf("Workers() = %d, want %d", c.Workers(), want)
			}
			for stage, n := range []int{0, 1, 2, 64, 1, 0, 257, 3} {
				runs := make([]atomic.Int32, n)
				perWorker := make([]int, c.Workers())
				gate := min(n, c.Workers()) // tasks that wait for one another
				var started atomic.Int32
				all := make(chan struct{})
				c.Run(n, func(worker, i int) {
					perWorker[worker]++
					runs[i].Add(1)
					if i >= gate {
						return
					}
					if int(started.Add(1)) == gate {
						close(all)
					}
					select {
					case <-all:
					case <-time.After(10 * time.Second):
						t.Errorf("stage %d: task %d waited 10s for the other %d workers", stage, i, gate-1)
					}
				})
				total := 0
				for _, k := range perWorker {
					total += k
				}
				if total != n {
					t.Fatalf("stage %d: workers ran %d tasks, want %d", stage, total, n)
				}
				for i := range runs {
					if k := runs[i].Load(); k != 1 {
						t.Fatalf("stage %d: task %d of %d ran %d times", stage, i, n, k)
					}
				}
			}
		})
	}
}

// TestCrewLateHelper holds a helper back until a stage is over: the
// caller must finish the stage alone instead of waiting for it, and
// the helper, when it finally runs, must find every task claimed and
// touch no worker's state.
func TestCrewLateHelper(t *testing.T) {
	c := &Crew{helpers: 1, wake: make(chan struct{}, 1)} // a helper not yet started
	c.idle.L = &c.mu
	var touched [2]atomic.Int32
	c.Run(16, func(worker, i int) { touched[worker].Add(1) })
	if got := touched[0].Load(); got != 16 {
		t.Fatalf("caller ran %d of 16 tasks", got)
	}
	c.exited.Add(1)
	go c.help(1) // takes the wake-up the stage left behind
	c.Stop()
	if got := touched[1].Load(); got != 0 {
		t.Fatalf("a helper that started after the last claim ran %d tasks", got)
	}
}
