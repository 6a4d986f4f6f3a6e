package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// VirtualTime is an instant of simulated time, measured in nanoseconds
// since simulation start (device power-on).
type VirtualTime int64

// Add returns the instant d after t.
func (t VirtualTime) Add(d time.Duration) VirtualTime { return t + VirtualTime(d) }

// Sub returns the duration elapsed from u to t.
func (t VirtualTime) Sub(u VirtualTime) time.Duration { return time.Duration(t - u) }

// Duration converts the instant to a duration since simulation start.
func (t VirtualTime) Duration() time.Duration { return time.Duration(t) }

// String renders the instant as a duration since power-on, e.g. "1.5ms".
func (t VirtualTime) String() string { return time.Duration(t).String() }

// EventID identifies a scheduled event so it can be cancelled. An ID packs
// the event's pool slot and a generation counter; when the slot is reused
// the generation changes, so a stale ID held after the event fired (or was
// cancelled) can never cancel the slot's new occupant.
type EventID uint64

func makeID(slot, gen uint32) EventID { return EventID(uint64(gen)<<32 | uint64(slot+1)) }

// event is a pending callback in the event queue. Events fire in
// (time, seq) order; seq breaks ties deterministically in FIFO order.
// Events are pooled: after dispatch or cancellation the struct returns to
// the engine's free list with its generation bumped.
type event struct {
	at       VirtualTime
	seq      uint64
	fn       func()
	slot     uint32
	gen      uint32
	index    int32 // heap position, -1 when not queued
	nextFree int32 // free-list link, -1 when none
}

// ErrPastTime reports an attempt to schedule an event before the current
// virtual time.
var ErrPastTime = errors.New("sim: schedule time is in the past")

// Engine is a deterministic discrete-event scheduler with a virtual clock
// and a seeded random number generator.
//
// An Engine must be created with New; the zero value is not usable.
type Engine struct {
	now      VirtualTime
	queue    []*event // binary heap ordered by (at, seq)
	slots    []*event // slot index -> pooled event, stable addresses
	freeHead int32    // head of the free-slot list, -1 when empty
	nextSeq  uint64
	rng      *rand.Rand
}

// New returns an Engine whose RNG is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{
		freeHead: -1,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() VirtualTime { return e.now }

// RNG returns the engine's deterministic random source. All simulation
// randomness must come from here to preserve reproducibility.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// Schedule arranges for fn to run after delay. A negative delay is an
// error; a zero delay runs fn on the next Step, after events already
// queued for the current instant.
func (e *Engine) Schedule(delay time.Duration, fn func()) (EventID, error) {
	if delay < 0 {
		return 0, fmt.Errorf("sim: negative delay %v: %w", delay, ErrPastTime)
	}
	return e.ScheduleAt(e.now.Add(delay), fn)
}

// ScheduleAt arranges for fn to run at instant at.
func (e *Engine) ScheduleAt(at VirtualTime, fn func()) (EventID, error) {
	if at < e.now {
		return 0, fmt.Errorf("sim: at=%v now=%v: %w", at, e.now, ErrPastTime)
	}
	if fn == nil {
		return 0, errors.New("sim: nil event function")
	}
	var ev *event
	if e.freeHead >= 0 {
		ev = e.slots[e.freeHead]
		e.freeHead = ev.nextFree
	} else {
		ev = &event{slot: uint32(len(e.slots))}
		e.slots = append(e.slots, ev)
	}
	e.nextSeq++
	ev.at = at
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.nextFree = -1
	e.heapPush(ev)
	return makeID(ev.slot, ev.gen), nil
}

// MustSchedule is Schedule but panics on error. It is intended for fixed
// non-negative delays where an error is a programming bug.
func (e *Engine) MustSchedule(delay time.Duration, fn func()) EventID {
	id, err := e.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// release returns a dispatched or cancelled event to the pool. Bumping the
// generation invalidates every outstanding EventID for the slot.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.index = -1
	ev.nextFree = e.freeHead
	e.freeHead = int32(ev.slot)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already ran, was cancelled, or never existed).
func (e *Engine) Cancel(id EventID) bool {
	slot := uint32(id & 0xffffffff)
	if slot == 0 || int(slot) > len(e.slots) {
		return false
	}
	ev := e.slots[slot-1]
	if ev.gen != uint32(id>>32) || ev.index < 0 {
		return false
	}
	e.heapRemove(int(ev.index))
	e.release(ev)
	return true
}

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return len(e.queue) }

// Step dispatches the next event, advancing the clock to its instant.
// It reports whether an event was dispatched.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.heapPop()
	e.now = ev.at
	fn := ev.fn
	// Release before running fn: the slot is immediately reusable and a
	// stale Cancel from inside fn (e.g. a ticker stopping itself) fails
	// the generation check instead of corrupting the queue.
	e.release(ev)
	fn()
	return true
}

// RunUntil dispatches events until the queue is empty or the next event
// lies beyond deadline. The clock is left at the later of its current
// value and deadline.
func (e *Engine) RunUntil(deadline VirtualTime) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Drain dispatches every pending event, up to limit dispatches (a safety
// valve against runaway self-rescheduling). It returns the number of
// events dispatched.
func (e *Engine) Drain(limit uint64) uint64 {
	var n uint64
	for n < limit && e.Step() {
		n++
	}
	return n
}

// less orders the heap by (at, seq).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *event) {
	ev.index = int32(len(e.queue))
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) heapPop() *event {
	ev := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[0].index = 0
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return ev
}

func (e *Engine) heapRemove(i int) {
	n := len(e.queue) - 1
	if i != n {
		e.queue[i] = e.queue[n]
		e.queue[i].index = int32(i)
	}
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i < n {
		if !e.siftUp(i) {
			e.siftDown(i)
		}
	}
}

// siftUp restores heap order above i; it reports whether i moved.
func (e *Engine) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e.queue[i], e.queue[parent]) {
			break
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		e.queue[i].index = int32(i)
		e.queue[parent].index = int32(parent)
		i = parent
		moved = true
	}
	return moved
}

func (e *Engine) siftDown(i int) {
	n := len(e.queue)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && eventLess(e.queue[right], e.queue[left]) {
			least = right
		}
		if !eventLess(e.queue[least], e.queue[i]) {
			return
		}
		e.queue[i], e.queue[least] = e.queue[least], e.queue[i]
		e.queue[i].index = int32(i)
		e.queue[least].index = int32(least)
		i = least
	}
}

// Ticker invokes a callback periodically until stopped. It is the
// building block for sampling monitors and heartbeats. Re-arming reuses a
// single cached closure, so a steady-state tick costs no allocations.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      func(VirtualTime)
	tickFn  func() // cached bound method; reused by every arm
	id      EventID
	stopped bool
}

// NewTicker starts a ticker on engine with the given period. The first
// tick fires one period from now. The callback receives the tick instant.
func NewTicker(engine *Engine, period time.Duration, fn func(VirtualTime)) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: ticker period %v must be positive", period)
	}
	if fn == nil {
		return nil, errors.New("sim: nil ticker function")
	}
	t := &Ticker{engine: engine, period: period, fn: fn}
	t.tickFn = t.tick
	t.arm()
	return t, nil
}

func (t *Ticker) arm() {
	t.id = t.engine.MustSchedule(t.period, t.tickFn)
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn(t.engine.Now())
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future ticks. It is safe to call more than once.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.engine.Cancel(t.id)
}

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool { return t.stopped }
