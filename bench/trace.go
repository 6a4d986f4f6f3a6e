package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is 0 for a root span.
type span struct {
	ID     int64
	Parent int64
	Name   string
	Start  int64
	End    int64
}

// dur is the span's length in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the service workloads record client spans and
// handler spans from different goroutines.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent int64) span {
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.t0))}
}

// finish closes s, records it and returns the closed span.
func (t *tracer) finish(s span) span {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// all returns a snapshot of the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is the part of parent's interval that none of its children
// cover: its duration minus the union of the children's intervals,
// each clipped to the parent. Children that overlap — shards running
// on parallel workers — are counted once.
func selfTime(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = v
		} else if v.hi > cur.hi {
			cur.hi = v.hi
		}
	}
	covered += cur.hi - cur.lo
	return parent.dur() - covered
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, s := range t.all() {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n", s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
