package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cres/internal/harness"
	"cres/internal/service"
	"cres/internal/store"
)

// svc-store replays the data requests of the repository's own request
// scripts, the SVC experiment's and the CI service gate's, against a
// store that already holds their answers: GET /appraise?size=256,
// size=1024 and /fleet?sizes=4,64,512, with equal weight, as the
// scripts send them. It is the CI gate's second pass, after a restart,
// and the SVC experiment's repeat rounds: every request is a store hit,
// so it runs the HTTP, validation, compile, digest and store.Get path,
// which bypasses the fleet engine and the crypto. Set-up is the first
// pass: it computes every answer and appends it to a fresh store. One
// operation is one /appraise hit. Store hits take tens of microseconds,
// far below the lateness of a sleeping open-loop generator, so this
// workload is a closed loop.

// storeParams sizes the svc-store workload.
type storeParams struct {
	// AppraiseSizes and FleetSizes are the scripts' requests: one
	// /appraise per size and one /fleet sweep over FleetSizes, each at
	// every one of Seeds fleet seeds.
	AppraiseSizes []int `json:"appraise_sizes"`
	FleetSizes    []int `json:"fleet_sizes"`
	Seeds         int   `json:"seeds"`
	// Setups is how many times the set-up (open a fresh store, start the
	// server, compute every key) runs, spread over the run; setup_s is
	// their median.
	Setups int `json:"setups"`
	// Replay is how many times the traced run calls each of
	// store.DigestBytes and store.Get directly.
	Replay         int     `json:"replay_calls"`
	TailPercentile float64 `json:"tail_percentile"`
}

func storeParamsFor(smoke bool) storeParams {
	p := storeParams{AppraiseSizes: []int{256, 1024}, FleetSizes: []int{4, 64, 512}, Seeds: 8,
		Setups: 4, Replay: 2000, TailPercentile: 0.99}
	if smoke {
		p.Seeds, p.Setups, p.Replay = 1, 1, 50
	}
	return p
}

// storeKeys lists the requests whose answers the store holds, in the
// order of their reference bodies: for each seed, the scripts' requests
// in script order.
func storeKeys(p storeParams, seed int64) []request {
	root := harness.ShardSeed(seed, -3)
	sizes := make([]string, len(p.FleetSizes))
	for i, n := range p.FleetSizes {
		sizes[i] = strconv.Itoa(n)
	}
	var out []request
	for s := 0; s < p.Seeds; s++ {
		fleetSeed := harness.ShardSeed(root, s)
		for _, size := range p.AppraiseSizes {
			q := getAppraise("hit", size, fleetSeed)
			q.key = len(out)
			out = append(out, q)
		}
		out = append(out, request{
			class: "fleet", method: http.MethodGet,
			path: fmt.Sprintf("/fleet?sizes=%s&seed=%d", strings.Join(sizes, ","), fleetSeed),
			key:  len(out), work: 1,
		})
	}
	return out
}

// storeRequest is request i of the stream with root seed: one of the
// keys, drawn with equal weight.
func storeRequest(root int64, keys []request, i int) request {
	return keys[uint64(harness.ShardSeed(root, i))%uint64(len(keys))]
}

func runStore(cfg config, tr *tracer) (rep *report, err error) {
	p := storeParamsFor(cfg.smoke)
	rep = newReport(p)
	keys := storeKeys(p, cfg.seed)
	fleetMiss := fmt.Sprintf("hit=0;miss=%d", len(p.FleetSizes))
	fleetHit := fmt.Sprintf("hit=%d;miss=0", len(p.FleetSizes))
	var refs [][]byte

	// setUp computes every key through a fresh server on a fresh store.
	// The first set-up's bodies become the references; every later one
	// must repeat them byte for byte. With ftr set, the computing
	// requests are traced, as class "miss" and "fleet-miss".
	var setupS []float64
	setUp := func(ftr *tracer) (*svcRig, error) {
		t0 := time.Now()
		defer func() { setupS = append(setupS, time.Since(t0).Seconds()) }()
		st, err := store.Open(filepath.Join(cfg.dir, fmt.Sprintf("store-%d", len(setupS))))
		if err != nil {
			return nil, err
		}
		r, err := startSvc(service.Config{Store: st, Parallel: cfg.workers}, cfg.workers)
		if err != nil {
			st.Close()
			return nil, err
		}
		r.tracing.Store(ftr)
		fill := make([]request, len(keys))
		for i, q := range keys {
			fill[i] = q
			fill[i].class = "miss"
			if q.class == "fleet" {
				fill[i].class = "fleet-miss"
			}
		}
		replies, err := fanOut(r, cfg.workers, fill)
		r.tracing.Store(nil)
		for i := 0; err == nil && i < len(replies); i++ {
			q, rp := keys[i], replies[i]
			switch {
			case q.class == "hit":
				err = verifyCold(q, rp)
			case rp.cache != fleetMiss:
				err = fmt.Errorf("%s: cache %q, want %q", q.path, rp.cache, fleetMiss)
			default:
				err = checkFleet(rp.body, p.FleetSizes)
			}
			if err == nil && refs != nil && !bytes.Equal(rp.body, refs[i]) {
				err = fmt.Errorf("%s: body differs from the first server's", q.path)
			}
		}
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("filling the store: %w", err)
		}
		if refs == nil {
			for _, rp := range replies {
				refs = append(refs, rp.body)
			}
		}
		return r, nil
	}
	rig, err := setUp(nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := rig.stop(); serr != nil && err == nil {
			rep, err = nil, serr
		}
	}()

	verify := func(q request, rp reply) error {
		want := "hit"
		if q.class == "fleet" {
			want = fleetHit
		}
		if rp.cache != want {
			return fmt.Errorf("%s: cache %q, want %q", q.path, rp.cache, want)
		}
		if !bytes.Equal(rp.body, refs[q.key]) {
			return fmt.Errorf("%s: body differs from its first response", q.path)
		}
		return nil
	}
	// loop runs the closed loop for d, continuing the request stream
	// from *next, and returns the /appraise hit latencies.
	loop := func(root int64, next *int, d time.Duration, work *meter) []float64 {
		gen := func(i int) request { return storeRequest(root, keys, i) }
		lat, n := closedLoop(rig, cfg.workers, d, *next, gen, verify, work, rep)
		*next += n
		return lat["hit"]
	}

	measured, setups := cfg.seconds, p.Setups
	if tr != nil {
		measured, setups = measured/2, 1
	}
	var hits []float64
	var work meter
	next := 0
	before := rig.srv.Stats()
	err = spaced(measured, setups, func(_ int, d time.Duration) {
		hits = append(hits, loop(harness.ShardSeed(cfg.seed, -4), &next, d, &work)...)
	}, func() error {
		r, err := setUp(nil)
		if err != nil {
			return err
		}
		return r.stop()
	})
	if err != nil {
		return nil, err
	}
	after := rig.srv.Stats()
	rep.measured(hits, p.TailPercentile, &work, setupS)
	if tr == nil {
		return rep, nil
	}

	// The traced half fills one more store, whose computing requests
	// give the miss spans, then repeats the loop on the first server.
	r, err := setUp(tr)
	if err == nil {
		err = r.stop()
	}
	if err != nil {
		return nil, err
	}
	rig.tracing.Store(tr)
	tracedNext := 0
	tracedHits := loop(harness.ShardSeed(cfg.seed, -5), &tracedNext, measured, &meter{})
	rig.tracing.Store(nil)
	handler, overhead := svcSpans(tr.all())

	// The replay calls the store-path layers the handler calls on an
	// /appraise hit: compile the spec, digest its canonical config, look
	// it up.
	var appraise []request
	for _, q := range keys {
		if q.class == "hit" {
			appraise = append(appraise, q)
		}
	}
	var compileNs, digestNs, getNs, appendNs []float64
	for i := 0; i < p.Replay; i++ {
		q := appraise[i%len(appraise)]
		t0 := time.Now()
		cf, err := q.spec.Compile()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		digest := store.DigestBytes(cf.Config.AppendCanonical(nil))
		t2 := time.Now()
		_, ok := rig.st.Get(store.Key{Experiment: "appraise", Seed: q.seed, Digest: digest})
		t3 := time.Now()
		if !ok {
			return nil, fmt.Errorf("replay: %s is not in the store", q.path)
		}
		compileNs = append(compileNs, float64(t1.Sub(t0)))
		digestNs = append(digestNs, float64(t2.Sub(t1)))
		getNs = append(getNs, float64(t3.Sub(t2)))
	}
	// Appends go to a scratch store, so the served one keeps its keys.
	probe, err := store.Open(filepath.Join(cfg.dir, "append-probe"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.Replay/10; i++ {
		rec := store.Record{Experiment: "appraise", Seed: int64(i), Digest: "probe", Body: string(refs[i%len(refs)])}
		t0 := time.Now()
		err := probe.Append(rec)
		appendNs = append(appendNs, float64(time.Since(t0)))
		if err != nil {
			probe.Close()
			return nil, err
		}
	}
	if err := probe.Close(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(filepath.Join(rig.st.Dir(), store.FileName))
	if err != nil {
		return nil, err
	}

	l := rep.layers
	hitHandler := percentile(handler["hit"], 0.5)
	l["service.handler_us.hit"] = hitHandler / 1e3
	l["service.handler_us.miss"] = percentile(handler["miss"], 0.5) / 1e3
	l["service.http_overhead_us"] = percentile(overhead, 0.5) / 1e3
	l["scenario.compile_us"] = percentile(compileNs, 0.5) / 1e3
	l["store.digest_us"] = percentile(digestNs, 0.5) / 1e3
	l["store.get_us"] = percentile(getNs, 0.5) / 1e3
	l["store.append_us"] = percentile(appendNs, 0.5) / 1e3
	l["store.bytes_per_record"] = float64(fi.Size()) / float64(rig.st.Len())
	hitCells := float64(after.CacheHits - before.CacheHits)
	l["service.hit_ratio"] = hitCells / (hitCells + float64(after.Computed-before.Computed))
	l["service.unaccounted_us.hit"] = (hitHandler - percentile(compileNs, 0.5) - percentile(digestNs, 0.5) - percentile(getNs, 0.5)) / 1e3
	l["trace.overhead_share"] = fastest(tracedHits)/fastest(hits) - 1
	return rep, nil
}
