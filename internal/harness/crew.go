package harness

import "sync"

// Crew lends one caller's loop a fixed set of helper goroutines. Run
// splits a stage of the caller's work into indexed tasks that the
// caller and the helpers claim from one counter, so a task runs on
// whichever of them is free first. The caller never waits for a helper
// to start, only for the tasks a helper has already claimed: a helper
// the scheduler wakes late finds every task claimed and goes back to
// sleep, and the caller has run the stage alone.
//
// Task results must not depend on which worker runs a task. The worker
// index a task receives (0 for the caller, 1 to Workers()-1 for the
// helpers) exists to select per-worker scratch, which no two concurrent
// tasks share.
//
// A nil Crew, or one with no helpers, runs every task on the caller in
// index order.
type Crew struct {
	helpers int
	wake    chan struct{}
	exited  sync.WaitGroup

	mu      sync.Mutex
	idle    sync.Cond // signalled when the stage's last running task returns
	task    func(worker, i int)
	n       int // tasks in the current stage
	next    int // the next unclaimed task
	running int // claimed tasks that have not returned
}

// NewCrew starts helpers helper goroutines, which sleep until Run has
// work for them. Stop ends them.
func NewCrew(helpers int) *Crew {
	c := &Crew{helpers: max(helpers, 0)}
	c.idle.L = &c.mu
	c.wake = make(chan struct{}, c.helpers) // one wake-up per helper
	c.exited.Add(c.helpers)
	for w := 1; w <= c.helpers; w++ {
		go c.help(w)
	}
	return c
}

// Workers is the number of workers a task's index can name: the
// caller plus the helpers.
func (c *Crew) Workers() int {
	if c == nil {
		return 1
	}
	return c.helpers + 1
}

// Run calls task(worker, i) exactly once for every i in [0, n) and
// returns when all the calls have returned. The caller claims tasks
// too; it is worker 0. Run is not safe for concurrent use.
func (c *Crew) Run(n int, task func(worker, i int)) {
	if c == nil || c.helpers == 0 || n <= 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	c.mu.Lock()
	c.task, c.n, c.next = task, n, 0
	c.mu.Unlock()
	for range min(c.helpers, n-1) {
		select {
		case c.wake <- struct{}{}:
		default: // every helper has a wake-up pending; each will claim from this stage
		}
	}
	c.claim(0)
	c.mu.Lock()
	for c.running > 0 {
		c.idle.Wait()
	}
	c.task = nil
	c.mu.Unlock()
}

// claim runs unclaimed tasks of the current stage as worker until none
// is left. A worker that finds none touches nothing else.
func (c *Crew) claim(worker int) {
	c.mu.Lock()
	for c.next < c.n {
		i, task := c.next, c.task
		c.next++
		c.running++
		c.mu.Unlock()
		task(worker, i)
		c.mu.Lock()
		c.running--
	}
	if c.running == 0 {
		c.idle.Signal()
	}
	c.mu.Unlock()
}

// help is helper worker's loop: each wake-up claims from the stage
// that is current when the helper gets to run.
func (c *Crew) help(worker int) {
	defer c.exited.Done()
	for range c.wake {
		c.claim(worker)
	}
}

// Stop ends the helpers and waits for them to exit. The Crew must not
// be used afterwards.
func (c *Crew) Stop() {
	if c == nil {
		return
	}
	close(c.wake)
	c.exited.Wait()
}
