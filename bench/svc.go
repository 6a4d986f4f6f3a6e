package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cres"
	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/scenario"
	"cres/internal/service"
	"cres/internal/store"
)

// spanHeader carries the client span's ID to the handler span, so the
// traced run can pair them.
const spanHeader = "X-Bench-Span"

// svcRig is one in-process resident service on a loopback listener and
// the benchmark's HTTP client, which opens at most workers connections.
type svcRig struct {
	srv     *service.Server
	st      *store.Store
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	tracing atomic.Pointer[tracer]
}

// startSvc builds a service.Server and serves its handler, wrapped so a
// traced run records a span around every call into it.
func startSvc(cfg service.Config, workers int) (*svcRig, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	r := &svcRig{srv: srv, st: cfg.Store, served: make(chan error, 1), base: "http://" + l.Addr().String()}
	inner := srv.Handler()
	r.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.tracing.Load()
		if tr == nil {
			inner.ServeHTTP(w, req)
			return
		}
		// A request without the header (none is sent untraced) becomes
		// a root span.
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		s := tr.start("service.handler", parent)
		inner.ServeHTTP(w, req)
		tr.finish(s)
	})}
	go func() { r.served <- r.hs.Serve(l) }()
	r.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
	}}
	return r, nil
}

// stop drains the server, waits for it to exit and closes the store.
func (r *svcRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if r.st != nil {
		if cerr := r.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// request is one generated service request.
type request struct {
	// class groups requests whose latency is reported together.
	class  string
	method string
	path   string
	body   []byte
	// spec and seed are the fleet the request appraises.
	spec scenario.FleetSpec
	seed int64
	// key indexes the reference body a repeat request must match; -1
	// for a request that computes.
	key int
	// work is what the request counts for in the throughput.
	work float64
}

// reply is a 200 response's cache header and body.
type reply struct {
	cache string
	body  []byte
}

// do sends q and reads the whole reply; any status but 200 is an error.
func (r *svcRig) do(q request) (reply, error) {
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method, r.base+q.path, body)
	if err != nil {
		return reply{}, err
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tr := r.tracing.Load()
	var sp span
	if tr != nil {
		sp = tr.start("client."+q.class, 0)
		req.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading reply: %w", q.method, q.path, err)
	}
	if tr != nil {
		tr.finish(sp)
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s %s: status %d: %s", q.method, q.path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return reply{cache: resp.Header.Get("X-Cres-Cache"), body: b}, nil
}

// healthz is the liveness probe; set-up sends it to open a connection.
var healthz = request{class: "healthz", method: http.MethodGet, path: "/healthz", key: -1, work: 1}

// getAppraise is GET /appraise for the E8 reference fleet, counting as
// one request.
func getAppraise(class string, size int, seed int64) request {
	return request{
		class: class, method: http.MethodGet,
		path: fmt.Sprintf("/appraise?size=%d&seed=%d", size, seed),
		spec: cres.E8FleetSpec(size), seed: seed, key: -1, work: 1,
	}
}

// checkAppraise checks a computed /appraise body with checkSummary.
func checkAppraise(body []byte, spec scenario.FleetSpec) error {
	var b struct {
		Devices int           `json:"devices"`
		Summary fleet.Summary `json:"summary"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("appraise body: %w", err)
	}
	if b.Devices != spec.Size {
		return fmt.Errorf("appraise body: %d devices, want %d", b.Devices, spec.Size)
	}
	return checkSummary(b.Summary, spec)
}

// checkFleet checks a computed /fleet body: one cell per size, each an
// /appraise body of the E8 reference fleet of that size.
func checkFleet(body []byte, sizes []int) error {
	var b struct {
		Sizes []int             `json:"sizes"`
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("fleet body: %w", err)
	}
	if !slices.Equal(b.Sizes, sizes) || len(b.Cells) != len(sizes) {
		return fmt.Errorf("fleet body: sizes %v and %d cells, want %v", b.Sizes, len(b.Cells), sizes)
	}
	for i, n := range sizes {
		if err := checkAppraise(b.Cells[i], cres.E8FleetSpec(n)); err != nil {
			return fmt.Errorf("fleet cell %d: %w", n, err)
		}
	}
	return nil
}

// fanOut sends qs over workers concurrent clients and returns the
// replies in order.
func fanOut(r *svcRig, workers int, qs []request) ([]reply, error) {
	return harness.Map(harness.NewPool(workers), len(qs), 0, func(sh harness.Shard) (reply, error) {
		return r.do(qs[sh.Index])
	})
}

// closedLoop runs workers clients for d. Each sends gen(i) for the next
// stream index i as soon as its previous reply arrived, so a slower
// service receives less load. Each request's work goes to work as its
// reply arrives. It returns the latencies by class and how many
// requests it sent.
func closedLoop(r *svcRig, workers int, d time.Duration, first int, gen func(int) request,
	verify func(request, reply) error, work *meter, rep *report) (lat map[string][]float64, n int) {
	var next atomic.Int64
	next.Store(int64(first))
	lat = map[string][]float64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work.begin()
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[string][]float64{}
			for time.Now().Before(deadline) {
				q := gen(int(next.Add(1) - 1))
				t0 := time.Now()
				rp, err := r.do(q)
				local[q.class] = append(local[q.class], float64(time.Since(t0)))
				work.add(t0, q.work)
				if err == nil {
					err = verify(q, rp)
				}
				rep.check(err)
			}
			mu.Lock()
			for c, xs := range local {
				lat[c] = append(lat[c], xs...)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	work.end()
	return lat, int(next.Load()) - first
}

// openLoop sends request i of gen at i/rate seconds after the start,
// whether or not earlier replies have arrived, for d. Latency runs from
// the time a request was due, so a stall also counts against the
// requests queued behind it. With all workers busy a due request waits:
// late is how far behind schedule each request was sent, and backlog is
// the most requests that were due but unsent at any send.
func openLoop(r *svcRig, workers int, rate float64, d time.Duration, gen func(int) request,
	verify func(request, reply) error, rep *report) (lat, late []float64, backlog int) {
	n := max(1, int(rate*d.Seconds()))
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	sent := make([]time.Duration, n)
	lat = make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				q := gen(i)
				if wait := due(i) - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent[i] = time.Since(start)
				rp, err := r.do(q)
				lat[i] = float64(time.Since(start) - due(i))
				if err == nil {
					err = verify(q, rp)
				}
				rep.check(err)
			}
		}()
	}
	wg.Wait()
	late = make([]float64, n)
	for i, s := range sent {
		late[i] = float64(s - due(i))
		dueBy := min(n, int(s.Seconds()*rate)+1)
		backlog = max(backlog, dueBy-(i+1))
	}
	return lat, late, backlog
}

// svcSpans pairs each traced client span with its handler span. It
// returns the handler durations by request class and each request's
// HTTP overhead: the client span's self time, the part of the round
// trip the handler does not cover.
func svcSpans(spans []span) (handler map[string][]float64, overhead []float64) {
	clients := map[int64]span{}
	kids := map[int64][]span{}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "client."):
			clients[s.ID] = s
		case s.Name == "service.handler":
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	handler = map[string][]float64{}
	for id, c := range clients {
		class := strings.TrimPrefix(c.Name, "client.")
		for _, h := range kids[id] {
			handler[class] = append(handler[class], float64(h.dur()))
		}
		overhead = append(overhead, float64(selfTime(c, kids[id])))
	}
	return handler, overhead
}
