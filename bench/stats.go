package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile
// for the percentile to describe the run rather than its few slowest
// samples.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps a product such as 0.07*100 = 7.000000000000001
	// from rounding up a whole rank.
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-percentile (p in (0, 1]) of
// xs, or NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// beyond is how many of n samples lie strictly after the
// nearest-rank p-percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailOK reports whether n samples support reporting percentile p.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minTail }

// quartiles returns the three cut points of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), which is how run-to-run spread is judged. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// fastest is the smallest of xs, or NaN for no samples.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rateWindow is the window throughput_per_s is taken over at its best.
// It is short, so that it finds the host's quiet spells as the fastest
// operation does, yet it spans operations in flight on every client or
// worker: two svc-cold requests, hundreds of svc-store requests, part of
// a fleet-sweep pass on both workers.
const rateWindow = 10 * time.Millisecond

// done is one finished operation: when it started and finished, on its
// meter's clock, and the work it counted for.
type done struct {
	start, end time.Duration
	work       float64
}

// meter records work on a clock that runs only between begin and end.
// The set-ups between stretches of measurement, and on bus-monitor the
// other configurations' passes, leave no gap in it. add is safe for
// concurrent use; begin and end are not.
type meter struct {
	mu    sync.Mutex
	base  time.Duration
	start time.Time
	dones []done
}

func (m *meter) begin() { m.start = time.Now() }

func (m *meter) end() { m.base += time.Since(m.start) }

// add records work started at t0, within the current stretch, and
// finished now.
func (m *meter) add(t0 time.Time, work float64) {
	m.mu.Lock()
	m.dones = append(m.dones, done{m.base + t0.Sub(m.start), m.base + time.Since(m.start), work})
	m.mu.Unlock()
}

// rate is the work per second over the whole clock, or NaN for no work.
func (m *meter) rate() float64 {
	w := 0.0
	for _, d := range m.dones {
		w += d.work
	}
	if w == 0 {
		return math.NaN()
	}
	return w / m.base.Seconds()
}

// bestRate is the highest work per second of any whole window of length
// w on the clock. Each operation's work is spread evenly over the time
// it ran, so a window counts the part of every operation in flight
// during it and no window gains or loses by where an operation ends.
// With less than one window of clock time it is the whole clock's rate.
func (m *meter) bestRate(w time.Duration) float64 {
	n := int(m.base / w)
	if n == 0 {
		return m.rate()
	}
	in := make([]float64, n)
	for _, d := range m.dones {
		if d.end <= d.start {
			if i := int(d.start / w); i < n {
				in[i] += d.work
			}
			continue
		}
		perNs := d.work / float64(d.end-d.start)
		for i := int(d.start / w); i < n && time.Duration(i)*w < d.end; i++ {
			lo, hi := max(d.start, time.Duration(i)*w), min(d.end, time.Duration(i+1)*w)
			in[i] += perNs * float64(hi-lo)
		}
	}
	best := 0.0
	for _, x := range in {
		best = max(best, x)
	}
	return best / w.Seconds()
}
