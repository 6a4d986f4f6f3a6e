package main

import (
	"fmt"
	"strconv"
	"time"

	"cres/internal/harness"
	"cres/internal/service"
)

// svc-cold sends the resident service requests that all compute: the
// service runs without a store and every request carries a fresh seed,
// so each compiles an engine and appraises its fleet. The requests are
// the appraisals of the repository's own request scripts, the SVC
// experiment's and the CI service gate's: GET /appraise?size=256 and
// size=1024, with equal weight, as the scripts send them once each. A
// fresh seed makes every request the script's first, computing one.
// Phase A is an open loop at a fixed rate, well below capacity, and
// gives the latencies; phase B is a closed loop and gives the capacity,
// in devices appraised per second, so a change that buys latency with
// capacity shows.

// coldParams sizes the svc-cold workload.
type coldParams struct {
	// Rate is phase A's open-loop request rate, per second.
	Rate float64 `json:"open_loop_rate_per_s"`
	// OpenShare is phase A's share of each stretch of measurement.
	OpenShare float64 `json:"open_loop_share"`
	// Sizes are the fleet sizes of the GET /appraise requests, drawn
	// with equal weight.
	Sizes []int `json:"sizes"`
	// Setups is how many times the set-up (start the server, answer
	// /healthz) runs, spread over the run; setup_s is their median.
	Setups int `json:"setups"`
	// Replay is how many requests the traced run re-drives through
	// Compile, Engine and RunParallel directly.
	Replay         int     `json:"replay_requests"`
	TailPercentile float64 `json:"tail_percentile"`
}

func coldParamsFor(smoke bool) coldParams {
	p := coldParams{Rate: 40, OpenShare: 0.5, Sizes: []int{256, 1024}, Setups: 8, Replay: 60, TailPercentile: 0.95}
	if smoke {
		p.Setups, p.Replay = 1, 3
	}
	return p
}

// coldClass names the request class of one fleet size.
func coldClass(size int) string { return "get" + strconv.Itoa(size) }

// request is request i of the stream with root seed: its size is drawn
// with equal weight and its fleet seed is fresh. It counts for its
// fleet's devices, which evens out the 4x spread in request cost.
func (p coldParams) request(root int64, i int) request {
	size := p.Sizes[uint64(harness.ShardSeed(root, i))%uint64(len(p.Sizes))]
	q := getAppraise(coldClass(size), size, harness.ShardSeed(harness.ShardSeed(root, -1), i))
	q.work = float64(size)
	return q
}

// verifyCold checks a reply that must have been computed.
func verifyCold(q request, rp reply) error {
	if rp.cache != "miss" {
		return fmt.Errorf("%s: cache %q, want miss", q.path, rp.cache)
	}
	return checkAppraise(rp.body, q.spec)
}

func runCold(cfg config, tr *tracer) (rep *report, err error) {
	p := coldParamsFor(cfg.smoke)
	rep = newReport(p)
	// Distinct stream roots keep every phase's fleet seeds fresh.
	warmRoot, streamRoot, tracedRoot, replayRoot := harness.ShardSeed(cfg.seed, -2),
		harness.ShardSeed(cfg.seed, -3), harness.ShardSeed(cfg.seed, -4), harness.ShardSeed(cfg.seed, -5)

	var setupS []float64
	setUp := func() (*svcRig, error) {
		t0 := time.Now()
		r, err := startSvc(service.Config{Parallel: cfg.workers}, cfg.workers)
		if err == nil {
			_, err = r.do(healthz)
			if err != nil {
				r.stop()
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return r, err
	}
	rig, err := setUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := rig.stop(); serr != nil && err == nil {
			rep, err = nil, serr
		}
	}()

	// One request of each size lets lazy initialisation finish and opens
	// the client's other connection.
	for i, size := range p.Sizes {
		q := getAppraise(coldClass(size), size, harness.ShardSeed(warmRoot, i))
		rp, err := rig.do(q)
		if err == nil {
			err = verifyCold(q, rp)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	// phases runs phase A, then phase B, for d, continuing run's request
	// stream.
	type coldRun struct {
		lat, late []float64 // phase A
		backlog   int       // phase A
		work      meter     // phase B's devices
		next      int       // next stream index
	}
	phases := func(root int64, run *coldRun, d time.Duration) {
		openD := time.Duration(float64(d) * p.OpenShare)
		first := run.next
		lat, late, backlog := openLoop(rig, cfg.workers, p.Rate, openD,
			func(i int) request { return p.request(root, first+i) }, verifyCold, rep)
		run.lat, run.late, run.backlog = append(run.lat, lat...), append(run.late, late...), max(run.backlog, backlog)
		run.next += len(lat)
		_, n := closedLoop(rig, cfg.workers, d-openD, run.next,
			func(i int) request { return p.request(root, i) }, verifyCold, &run.work, rep)
		run.next += n
	}

	measured, setups := cfg.seconds, p.Setups
	if tr != nil {
		measured, setups = measured/2, 1
	}
	var run coldRun
	err = spaced(measured, setups, func(_ int, d time.Duration) { phases(streamRoot, &run, d) }, func() error {
		r, err := setUp()
		if err != nil {
			return err
		}
		return r.stop()
	})
	if err != nil {
		return nil, err
	}
	rep.measured(run.lat, p.TailPercentile, &run.work, setupS)
	if tr == nil {
		return rep, nil
	}

	rig.tracing.Store(tr)
	var traced coldRun
	phases(tracedRoot, &traced, measured)
	rig.tracing.Store(nil)
	handler, overhead := svcSpans(tr.all())

	// The replay re-drives requests of the same mix through the layers
	// the handler calls, outside the service.
	pool := harness.NewPool(cfg.workers)
	var compileNs, engineNs []float64
	byClass := map[string]*[3][]float64{} // compile, engine, run
	for _, size := range p.Sizes {
		byClass[coldClass(size)] = &[3][]float64{}
	}
	for i := 0; i < p.Replay; i++ {
		q := p.request(replayRoot, i)
		t0 := time.Now()
		cf, err := q.spec.Compile()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		eng, err := cf.Engine(q.seed)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		sum, err := eng.RunParallel(pool)
		t3 := time.Now()
		if err == nil {
			err = checkSummary(sum, q.spec)
		}
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		c := byClass[q.class]
		for k, ns := range []float64{float64(t1.Sub(t0)), float64(t2.Sub(t1)), float64(t3.Sub(t2))} {
			c[k] = append(c[k], ns)
		}
		compileNs = append(compileNs, float64(t1.Sub(t0)))
		engineNs = append(engineNs, float64(t2.Sub(t1)))
	}

	l := rep.layers
	unaccounted, handled := 0.0, 0
	for _, size := range p.Sizes {
		class := coldClass(size)
		h, c := handler[class], byClass[class]
		l["service.handler_us."+class] = percentile(h, 0.5) / 1e3
		l["fleet.run_us."+class] = percentile(c[2], 0.5) / 1e3
		if len(h) > 0 && len(c[2]) > 0 {
			rest := percentile(h, 0.5) - percentile(c[0], 0.5) - percentile(c[1], 0.5) - percentile(c[2], 0.5)
			unaccounted += rest * float64(len(h))
			handled += len(h)
		}
	}
	l["service.unaccounted_us"] = unaccounted / float64(handled) / 1e3
	l["service.http_overhead_us"] = percentile(overhead, 0.5) / 1e3
	l["scenario.compile_us"] = percentile(compileNs, 0.5) / 1e3
	l["fleet.engine_new_us"] = percentile(engineNs, 0.5) / 1e3
	l["gen.late_p99_us"] = percentile(run.late, 0.99) / 1e3
	l["gen.backlog"] = float64(run.backlog)
	l["trace.overhead_share"] = fastest(traced.lat)/fastest(run.lat) - 1
	return rep, nil
}
