package baseline

import (
	"errors"
	"fmt"
	"time"

	"cres/internal/response"
	"cres/internal/sim"
)

// PlainLogEntry is one record of the baseline's unprotected log.
type PlainLogEntry struct {
	At     sim.VirtualTime
	Detail string
}

// PlainLog is a conventional ring-buffer-style device log: appendable,
// readable and — crucially — silently erasable by anyone with write
// access to its memory. It is the strawman the evidence package replaces.
type PlainLog struct {
	entries []PlainLogEntry
}

// Append adds a record.
func (l *PlainLog) Append(at sim.VirtualTime, detail string) {
	l.entries = append(l.entries, PlainLogEntry{At: at, Detail: detail})
}

// Len returns the record count.
func (l *PlainLog) Len() int { return len(l.entries) }

// Entries returns a copy of the log.
func (l *PlainLog) Entries() []PlainLogEntry {
	out := make([]PlainLogEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Erase deletes everything after keep records. There is no detection
// mechanism: that is the point.
func (l *PlainLog) Erase(keep int) {
	if keep < 0 {
		keep = 0
	}
	if keep < len(l.entries) {
		l.entries = l.entries[:keep]
	}
}

// Window returns records within [from, to].
func (l *PlainLog) Window(from, to sim.VirtualTime) []PlainLogEntry {
	var out []PlainLogEntry
	for _, e := range l.entries {
		if e.At >= from && e.At <= to {
			out = append(out, e)
		}
	}
	return out
}

// RebootDuration is how long a reboot keeps all services down: 500ms
// of virtual time, an embedded-class cold boot.
const RebootDuration = 500 * time.Millisecond

// Controller is the baseline's entire "response plane": when something
// trips the watchdog (or an operator notices), it reboots, taking every
// service down for the boot duration, and logs to the plain log.
type Controller struct {
	engine   *sim.Engine
	log      *PlainLog
	degrader *response.Degrader

	rebooting bool
	reboots   uint64
}

// ErrRebootInProgress reports an overlapping reboot request.
var ErrRebootInProgress = errors.New("baseline: reboot already in progress")

// NewController creates the baseline controller. degrader tracks the
// device's services (all of which a reboot takes down).
func NewController(engine *sim.Engine, log *PlainLog, degrader *response.Degrader) *Controller {
	return &Controller{engine: engine, log: log, degrader: degrader}
}

// Reboots returns how many reboots have occurred.
func (c *Controller) Reboots() uint64 { return c.reboots }

// Rebooting reports whether a reboot is in progress.
func (c *Controller) Rebooting() bool { return c.rebooting }

// Reboot is the passive countermeasure: stop everything, wait the boot
// time, start everything again. onComplete (may be nil) runs when the
// device is back up.
func (c *Controller) Reboot(reason string, onComplete func()) error {
	if c.rebooting {
		return ErrRebootInProgress
	}
	c.rebooting = true
	c.reboots++
	c.log.Append(c.engine.Now(), fmt.Sprintf("reboot: %s", reason))
	c.degrader.StopAll()
	c.engine.MustSchedule(RebootDuration, func() {
		c.rebooting = false
		c.degrader.StartAll()
		c.log.Append(c.engine.Now(), "reboot complete")
		if onComplete != nil {
			onComplete()
		}
	})
	return nil
}
