package faultmodel

import (
	"testing"
	"time"
)

func TestZeroPlanIsIdentity(t *testing.T) {
	p := &Plan{Seed: 7}
	if p.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	in := p.NewInjector()
	for i := 0; i < 100; i++ {
		f := in.Fate("a", "b")
		if len(f.Deliveries) != 1 || f.Deliveries[0] != 0 {
			t.Fatalf("zero plan fate = %+v", f)
		}
	}
	if p.CrashSchedule(50) != nil {
		t.Fatal("zero plan crashes devices")
	}
	if p.VerifierDown(0) || p.VerifierDown(time.Hour) {
		t.Fatal("zero plan has verifier outages")
	}
}

func TestFateDeterminismAndLinkIndependence(t *testing.T) {
	p := &Plan{Seed: 11, Link: LinkRates{Drop: 0.3, Duplicate: 0.2, Reorder: 0.3}}
	if !p.Enabled() {
		t.Fatal("plan with rates reports disabled")
	}
	// Same call sequence, two injectors: identical fates.
	a, b := p.NewInjector(), p.NewInjector()
	for i := 0; i < 500; i++ {
		fa, fb := a.Fate("x", "y"), b.Fate("x", "y")
		if len(fa.Deliveries) != len(fb.Deliveries) {
			t.Fatalf("draw %d: %v vs %v", i, fa, fb)
		}
		for j := range fa.Deliveries {
			if fa.Deliveries[j] != fb.Deliveries[j] {
				t.Fatalf("draw %d copy %d: %v vs %v", i, j, fa, fb)
			}
		}
	}
	// Link streams are independent: traffic on one link never shifts
	// another link's fates. Injector c interleaves heavy q-r traffic.
	c, d := p.NewInjector(), p.NewInjector()
	for i := 0; i < 200; i++ {
		c.Fate("q", "r")
		fc, fd := c.Fate("x", "y"), d.Fate("x", "y")
		if len(fc.Deliveries) != len(fd.Deliveries) {
			t.Fatalf("draw %d: interleaved traffic shifted fates: %v vs %v", i, fc, fd)
		}
	}
	// Unordered pair: (x,y) and (y,x) share one stream.
	e, f := p.NewInjector(), p.NewInjector()
	for i := 0; i < 100; i++ {
		fe, ff := e.Fate("x", "y"), f.Fate("y", "x")
		if len(fe.Deliveries) != len(ff.Deliveries) {
			t.Fatalf("draw %d: direction changed the fate stream", i)
		}
	}
}

func TestFateRates(t *testing.T) {
	p := &Plan{Seed: 3, Link: LinkRates{Drop: 0.25, Duplicate: 0.2, Reorder: 0.4}}
	in := p.NewInjector()
	const n = 20000
	var dropped, duplicated, delayed int
	for i := 0; i < n; i++ {
		f := in.Fate("a", "b")
		switch {
		case len(f.Deliveries) == 0:
			dropped++
		case len(f.Deliveries) == 2:
			duplicated++
		}
		if len(f.Deliveries) > 0 && f.Deliveries[0] > 0 {
			delayed++
			if f.Deliveries[0] > reorderDelay {
				t.Fatalf("delay %v beyond bound %v", f.Deliveries[0], reorderDelay)
			}
		}
		if len(f.Deliveries) == 2 && (f.Deliveries[1] <= f.Deliveries[0] || f.Deliveries[1] > 2*reorderDelay) {
			t.Fatalf("duplicate copy not after the original or beyond bound %v: %v", 2*reorderDelay, f.Deliveries)
		}
	}
	near := func(got int, want float64) bool {
		frac := float64(got) / n
		return frac > want-0.02 && frac < want+0.02
	}
	if !near(dropped, 0.25) {
		t.Fatalf("drop fraction %d/%d far from 0.25", dropped, n)
	}
	// Duplication and delay are conditional on survival (75%).
	if !near(duplicated, 0.2*0.75) {
		t.Fatalf("duplicate fraction %d/%d far from 0.15", duplicated, n)
	}
	if !near(delayed, 0.4*0.75) {
		t.Fatalf("reorder fraction %d/%d far from 0.30", delayed, n)
	}
}

func TestCrashScheduleIsPurePerDevice(t *testing.T) {
	p := &Plan{Seed: 5, CrashFraction: 0.4}
	small, large := p.CrashSchedule(10), p.CrashSchedule(100)
	if len(small) == 0 {
		t.Fatal("no crashes at fraction 0.4 over 10 devices")
	}
	// A device's fate must not depend on the fleet size it is part of.
	byDev := make(map[int]Crash)
	for _, c := range large {
		byDev[c.Device] = c
	}
	for _, c := range small {
		if byDev[c.Device] != c {
			t.Fatalf("device %d crash differs by fleet size: %+v vs %+v", c.Device, c, byDev[c.Device])
		}
		if c.At < 0 || c.At >= crashWindow {
			t.Fatalf("crash at %v outside window", c.At)
		}
		if c.Back != c.At+rebootOutage {
			t.Fatalf("reboot at %v, want %v", c.Back, c.At+rebootOutage)
		}
	}
	frac := float64(len(large)) / 100
	if frac < 0.2 || frac > 0.6 {
		t.Fatalf("crash fraction %v far from 0.4", frac)
	}
}

func TestVerifierDownWindows(t *testing.T) {
	p := &Plan{Outages: 2}
	if !p.Enabled() {
		t.Fatal("plan with outages reports disabled")
	}
	cases := []struct {
		at   time.Duration
		down bool
	}{
		{-outageEvery, false},
		{0, false},
		{outageEvery - 1, false},
		{outageEvery, true},
		{outageEvery + outageLen - 1, true},
		{outageEvery + outageLen, false},
		{2 * outageEvery, true},
		{2*outageEvery + outageLen, false},
		{3 * outageEvery, false},
	}
	for _, c := range cases {
		if p.VerifierDown(c.at) != c.down {
			t.Fatalf("VerifierDown(%v) = %v", c.at, !c.down)
		}
	}
}

func TestBackoffDeterministicBoundedExponential(t *testing.T) {
	p := &Plan{Seed: 9}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 6; attempt++ {
		d := p.Backoff("attest|node-03", attempt)
		if d != p.Backoff("attest|node-03", attempt) {
			t.Fatal("backoff not deterministic")
		}
		exp := backoffBase << uint(attempt-1)
		if exp > backoffCap {
			exp = backoffCap
		}
		if d < exp || d > exp+exp/4 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, exp, exp+exp/4)
		}
		if attempt > 1 && d <= prev && exp < backoffCap {
			t.Fatalf("attempt %d: backoff %v did not grow past %v", attempt, d, prev)
		}
		prev = d
	}
	if p.Backoff("attest|node-03", 0) <= 0 {
		t.Fatal("clamped attempt returned nonpositive delay")
	}
	if p.Backoff("a", 2) == p.Backoff("b", 2) {
		t.Fatal("distinct streams share jitter")
	}
}
