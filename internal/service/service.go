package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/store"
)

// BodySchema is the schema tag every deterministic response body
// carries.
const BodySchema = "cresd/v1"

// Request caps. They bound what one HTTP request may ask the engines
// to compute; a request beyond a cap is a 400 (a 413 for a body),
// never a silently clamped workload.
const (
	maxFleetSize     = 1 << 20 // devices in one /appraise or /fleet cell
	maxSweepSizes    = 16      // sizes in one /fleet sweep
	maxCampaignSeeds = 8       // /campaign seed replicas per cell
	maxTopologySize  = 64      // /topology fleet size
	maxBodyBytes     = 1 << 20 // POST body (the /appraise fleet spec)
	// maxDwell bounds /topology's worm dwell: the cell simulates the
	// dwell in virtual time, so an unbounded dwell is unbounded CPU.
	maxDwell = time.Second
)

const (
	// DefaultSeed is the root seed of a request that omits seed, unless
	// Config.DefaultSeed chooses another.
	DefaultSeed = 7
	// engineCacheCap bounds the warm compiled-engine cache.
	engineCacheCap = 64
	// drainTimeout bounds how long a graceful shutdown waits for
	// in-flight requests.
	drainTimeout = 30 * time.Second
)

// Config parameterizes a Server. The zero value of every field selects
// a default.
type Config struct {
	// Store persists deterministic response bodies and answers repeat
	// requests without recomputation. Nil disables persistence (every
	// request recomputes).
	Store *store.Store
	// Parallel bounds each request-scoped harness.Pool (0 =
	// GOMAXPROCS): a fleet's shards run on it, and workers they leave
	// idle help inside a shard. Parallelism never changes response
	// bytes: the shard split is a function of fleet size only, and the
	// split inside a shard only regroups exact curve sums.
	Parallel int
	// Quick selects the reduced sweeps for /run when the request does
	// not say; requests may override per call.
	Quick bool
	// Experiments restricts /run to the named registry experiments.
	// Nil allows every registered experiment.
	Experiments []string
	// DefaultSeed is the root seed used when a request omits seed.
	DefaultSeed int64
}

// Stats are the server's monotonic request counters. They are
// operational telemetry (served by /statz), not part of any
// deterministic body.
type Stats struct {
	// Requests counts every request routed to an endpoint.
	Requests uint64
	// Computed counts deterministic cells computed by the engines.
	Computed uint64
	// CacheHits counts deterministic cells answered from the store.
	CacheHits uint64
	// Errors counts requests answered with an error status.
	Errors uint64
}

// Server is the resident attestation service. Create one with New,
// mount Handler on a listener (or call Serve), and stop it with
// Shutdown or a /quit request.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// allowed is the /run experiment allowlist in registry order.
	allowed []string

	engMu    sync.Mutex
	engines  map[store.Key]*fleet.Engine
	engOrder []store.Key

	// flights holds the computes in progress for store-backed cells, so
	// identical concurrent requests compute once.
	flightMu sync.Mutex
	flights  map[store.Key]*flight

	requests  atomic.Uint64
	computed  atomic.Uint64
	cacheHits atomic.Uint64
	errors    atomic.Uint64

	draining atomic.Bool
	quitOnce sync.Once
	quitCh   chan struct{}

	hsMu sync.Mutex
	hs   *http.Server
}

// New validates the config, fills defaults and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.DefaultSeed == 0 {
		cfg.DefaultSeed = DefaultSeed
	}
	allowed, err := resolveExperiments(cfg.Experiments)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		allowed: allowed,
		engines: make(map[store.Key]*fleet.Engine),
		flights: make(map[store.Key]*flight),
		quitCh:  make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// resolveExperiments validates an experiment allowlist against the
// registry, preserving registry order. Nil selects every registered
// experiment.
func resolveExperiments(names []string) ([]string, error) {
	if names == nil {
		return harness.Names(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := harness.Lookup(n); !ok {
			return nil, fmt.Errorf("service: unknown experiment %q (registry has %s)", n, strings.Join(harness.Names(), ", "))
		}
		want[n] = true
	}
	var out []string
	for _, n := range harness.Names() {
		if want[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// Handler returns the service's HTTP handler. It can be mounted on
// any listener — httptest servers included — independent of Serve.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns a snapshot of the request counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:  s.requests.Load(),
		Computed:  s.computed.Load(),
		CacheHits: s.cacheHits.Load(),
		Errors:    s.errors.Load(),
	}
}

// Serve answers requests on l until Shutdown (or a /quit request)
// drains the server, then flushes the store and returns nil. Any
// other listener failure is returned as-is.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	go func() {
		<-s.quitCh
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		hs.Shutdown(ctx)
	}()
	err := hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if s.cfg.Store != nil {
		if serr := s.cfg.Store.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// Shutdown begins a graceful drain: new requests are refused with
// 503, in-flight requests run to completion (bounded by ctx), and the
// store is flushed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	if s.cfg.Store != nil {
		if serr := s.cfg.Store.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// beginDrain marks the server draining and wakes the Serve goroutine.
func (s *Server) beginDrain() {
	s.draining.Store(true)
	s.quitOnce.Do(func() { close(s.quitCh) })
}

// Draining reports whether a shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// requestPool builds the request-scoped worker pool. One pool per
// request: the engines stay deterministic at any width (the shard
// split follows fleet size only, the split inside a shard only
// regroups exact curve sums), and no request's fan-out can starve
// another's.
func (s *Server) requestPool() *harness.Pool { return harness.NewPool(s.cfg.Parallel) }

// engine returns the warm compiled engine for a cell key, building and
// caching it on first use. Engines are immutable after construction
// and safe for concurrent runs, so one warm engine serves any number
// of concurrent identical requests.
func (s *Server) engine(key store.Key, build func() (*fleet.Engine, error)) (*fleet.Engine, error) {
	s.engMu.Lock()
	if eng, ok := s.engines[key]; ok {
		s.engMu.Unlock()
		return eng, nil
	}
	s.engMu.Unlock()

	// Build outside the lock: compilation is pure and idempotent, and
	// a slow compile must not serialize unrelated requests.
	eng, err := build()
	if err != nil {
		return nil, err
	}

	s.engMu.Lock()
	defer s.engMu.Unlock()
	if prior, ok := s.engines[key]; ok {
		return prior, nil
	}
	if len(s.engOrder) >= engineCacheCap {
		oldest := s.engOrder[0]
		s.engOrder = s.engOrder[1:]
		delete(s.engines, oldest)
	}
	s.engines[key] = eng
	s.engOrder = append(s.engOrder, key)
	return eng, nil
}

// flight is one in-flight compute of a store-backed cell. done closes
// once body and err are set.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// errFlightAbandoned is what requests waiting on a compute receive if
// that compute panics instead of returning.
var errFlightAbandoned = errors.New("the identical request computing this cell did not finish")

// cell answers one deterministic cell at one seed: serve the stored
// body when the store has the key, otherwise compute, record and
// serve. A store miss for a key another request is already computing
// waits for that compute and shares its bytes, counted as a hit, or
// its error. The returned bool reports a cache hit. Identical keys
// always yield byte-identical bodies — fresh or stored.
func (s *Server) cell(c cell, seed int64, nocache bool) ([]byte, bool, error) {
	key := store.Key{Experiment: c.experiment, Seed: seed, Digest: c.digest}
	if s.cfg.Store == nil || nocache {
		body, err := s.compute(c, key)
		return body, false, err
	}
	if rec, ok := s.cfg.Store.Get(key); ok {
		s.cacheHits.Add(1)
		return []byte(rec.Body), true, nil
	}
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		s.cacheHits.Add(1)
		return f.body, true, nil
	}
	// A compute that finished since the Get above appended its record
	// before leaving flights, so the store has it now.
	if rec, ok := s.cfg.Store.Get(key); ok {
		s.flightMu.Unlock()
		s.cacheHits.Add(1)
		return []byte(rec.Body), true, nil
	}
	f := &flight{done: make(chan struct{}), err: errFlightAbandoned}
	s.flights[key] = f
	s.flightMu.Unlock()
	defer func() {
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}()
	f.body, f.err = s.compute(c, key)
	return f.body, false, f.err
}

// compute computes one cell and records it in the store, if there is
// one.
func (s *Server) compute(c cell, key store.Key) ([]byte, error) {
	start := time.Now()
	body, err := c.compute(key)
	if err != nil {
		return nil, err
	}
	s.computed.Add(1)
	if s.cfg.Store != nil {
		rec := store.Record{
			Experiment: key.Experiment,
			Seed:       key.Seed,
			Digest:     key.Digest,
			Body:       string(body),
			NsPerOp:    float64(time.Since(start).Nanoseconds()),
			UnixTime:   time.Now().Unix(),
		}
		if err := s.cfg.Store.Append(rec); err != nil {
			return nil, fmt.Errorf("storing result: %w", err)
		}
	}
	return body, nil
}
