package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"cres"
	"cres/internal/attack"
	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/scenario"
	"cres/internal/store"
)

// httpError is an error with an HTTP status. Handlers return it to
// pick the response code; anything else is a 500.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// errf builds an httpError.
func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// response is one handler's outcome: the JSON body (without trailing
// newline) plus the X-Cres-* header values. quit asks the wrapper to
// begin the graceful drain after the response is written.
type response struct {
	body   []byte
	digest string
	cache  string
	quit   bool
}

// handlerFunc is one endpoint's logic, free of HTTP plumbing.
type handlerFunc func(r *http.Request) (*response, error)

// routes mounts every endpoint.
func (s *Server) routes() {
	s.mux.HandleFunc("/healthz", s.wrap("GET", s.handleHealthz))
	s.mux.HandleFunc("/experiments", s.wrap("GET", s.handleExperiments))
	s.mux.HandleFunc("/run", s.wrap("GET", s.serveCells(s.parseRun)))
	s.mux.HandleFunc("/appraise", s.wrap("GET,POST", s.serveCells(s.parseAppraise)))
	s.mux.HandleFunc("/fleet", s.wrap("GET", s.serveCells(s.parseFleet)))
	s.mux.HandleFunc("/campaign", s.wrap("GET", s.serveCells(s.parseCampaign)))
	s.mux.HandleFunc("/topology", s.wrap("GET", s.serveCells(s.parseTopology)))
	s.mux.HandleFunc("/results", s.wrap("GET", s.handleResults))
	s.mux.HandleFunc("/statz", s.wrap("GET", s.handleStatz))
	s.mux.HandleFunc("/quit", s.wrap("POST", s.handleQuit))
	s.mux.HandleFunc("/", s.wrap("", s.handleNotFound))
}

// endpointList names the mounted endpoints, for the 404 body.
const endpointList = "/healthz, /experiments, /run, /appraise, /fleet, /campaign, /topology, /results, /statz, /quit"

// wrap adapts a handlerFunc to net/http: drain refusal, method
// check, body bound, error rendering, counters, headers, trailing
// newline. methods is the comma-separated allowed set ("" = any
// method).
func (s *Server) wrap(methods string, fn handlerFunc) http.HandlerFunc {
	var allowed []string
	if methods != "" {
		allowed = strings.Split(methods, ",")
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.draining.Load() {
			s.writeError(w, errf(http.StatusServiceUnavailable, "server draining"))
			return
		}
		if len(allowed) > 0 && !slices.Contains(allowed, r.Method) {
			s.writeError(w, errf(http.StatusMethodNotAllowed, "%s %s: method not allowed (allowed: %s)", r.Method, r.URL.Path, methods))
			return
		}
		if r.Method == http.MethodPost {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		resp, err := fn(r)
		if err != nil {
			s.writeError(w, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json; charset=utf-8")
		if resp.digest != "" {
			h.Set("X-Cres-Digest", resp.digest)
		}
		if resp.cache != "" {
			h.Set("X-Cres-Cache", resp.cache)
		}
		w.WriteHeader(http.StatusOK)
		w.Write(resp.body)
		w.Write([]byte("\n"))
		if resp.quit {
			s.beginDrain()
		}
	}
}

// writeError renders an error as {"error": ...} with its status code.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	code := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		code = he.code
	}
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(body)
	w.Write([]byte("\n"))
}

// checkParams rejects any query parameter outside the allowed set —
// the strict-flag rule of the CLIs carried over: a typoed parameter
// is a usage error naming the valid ones, never a silent default.
func checkParams(q url.Values, allowed ...string) error {
	for name := range q {
		if !slices.Contains(allowed, name) {
			return errf(http.StatusBadRequest, "unknown query parameter %q (allowed: %s)", name, strings.Join(slices.Sorted(slices.Values(allowed)), ", "))
		}
	}
	return nil
}

// seedParam parses ?seed, defaulting to the server's root seed.
func (s *Server) seedParam(q url.Values) (int64, error) {
	v := q.Get("seed")
	if v == "" {
		return s.cfg.DefaultSeed, nil
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, errf(http.StatusBadRequest, "seed %q: want a base-10 integer", v)
	}
	return seed, nil
}

// boolParam parses an optional boolean query parameter.
func boolParam(q url.Values, name string, def bool) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, errf(http.StatusBadRequest, "%s %q: want a boolean", name, v)
	}
	return b, nil
}

// intParam parses an optional integer query parameter.
func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, errf(http.StatusBadRequest, "%s %q: want an integer", name, v)
	}
	return n, nil
}

// handleNotFound is the JSON 404 for unmounted paths.
func (s *Server) handleNotFound(r *http.Request) (*response, error) {
	return nil, errf(http.StatusNotFound, "no endpoint %q (endpoints: %s)", r.URL.Path, endpointList)
}

// handleHealthz answers the liveness probe.
func (s *Server) handleHealthz(r *http.Request) (*response, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return nil, err
	}
	body, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Status string `json:"status"`
	}{Schema: BodySchema, Status: "ok"})
	if err != nil {
		return nil, err
	}
	return &response{body: body}, nil
}

// handleExperiments lists the experiments /run will accept.
func (s *Server) handleExperiments(r *http.Request) (*response, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return nil, err
	}
	body, err := json.Marshal(struct {
		Schema      string   `json:"schema"`
		Endpoint    string   `json:"endpoint"`
		Experiments []string `json:"experiments"`
	}{Schema: BodySchema, Endpoint: "experiments", Experiments: s.allowed})
	if err != nil {
		return nil, err
	}
	return &response{body: body}, nil
}

// A cell is one stored, deterministic result: the store experiment it
// is filed under, the digest of everything that shapes it except the
// seed, and the function computing its body for a full store key.
type cell struct {
	experiment string
	digest     string
	compute    func(key store.Key) ([]byte, error)
}

// A cellRequest is a compute request after parsing: the cells it asks
// for and, when it asks for several, the envelope that renders their
// bodies into the response for the request's seed. Without an
// envelope the request has exactly one cell, whose body is the
// response.
type cellRequest struct {
	cells    []cell
	envelope func(seed int64, bodies [][]byte) ([]byte, error)
}

// serveCells is the one path every compute endpoint takes. parse
// checks and validates the endpoint's own parameters and returns its
// cells; serveCells then parses ?seed and ?nocache, answers each cell
// through s.cell and sets the headers: a single cell's digest and
// hit or miss, or an envelope's hit and miss counts.
func (s *Server) serveCells(parse func(r *http.Request, q url.Values) (cellRequest, error)) handlerFunc {
	return func(r *http.Request) (*response, error) {
		q := r.URL.Query()
		req, err := parse(r, q)
		if err != nil {
			return nil, err
		}
		seed, err := s.seedParam(q)
		if err != nil {
			return nil, err
		}
		nocache, err := boolParam(q, "nocache", false)
		if err != nil {
			return nil, err
		}
		var bodies [][]byte
		if req.envelope != nil {
			bodies = make([][]byte, 0, len(req.cells))
		}
		hits := 0
		for _, c := range req.cells {
			body, hit, err := s.cell(c, seed, nocache)
			if err != nil {
				return nil, err
			}
			if req.envelope == nil {
				// The request's only cell: its body and identity are
				// the response.
				return &response{body: body, digest: c.digest, cache: cacheTag(hit)}, nil
			}
			if hit {
				hits++
			}
			bodies = append(bodies, body)
		}
		body, err := req.envelope(seed, bodies)
		if err != nil {
			return nil, err
		}
		return &response{body: body, cache: fmt.Sprintf("hit=%d;miss=%d", hits, len(bodies)-hits)}, nil
	}
}

// cacheTag renders the X-Cres-Cache value for one cell.
func cacheTag(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// runBody is the /run response envelope.
type runBody struct {
	Schema     string   `json:"schema"`
	Endpoint   string   `json:"endpoint"`
	Experiment string   `json:"experiment"`
	Seed       int64    `json:"seed"`
	Quick      bool     `json:"quick"`
	Blocks     []string `json:"blocks"`
}

// parseRun asks for one registered experiment, run under Stable
// rendering and served as its text blocks.
func (s *Server) parseRun(r *http.Request, q url.Values) (cellRequest, error) {
	if err := checkParams(q, "experiment", "seed", "quick", "nocache"); err != nil {
		return cellRequest{}, err
	}
	name := q.Get("experiment")
	if !slices.Contains(s.allowed, name) {
		return cellRequest{}, errf(http.StatusBadRequest, "experiment %q not served here (valid: %s)", name, strings.Join(s.allowed, ", "))
	}
	exp, ok := harness.Lookup(name)
	if !ok {
		return cellRequest{}, errf(http.StatusInternalServerError, "experiment %q allowed but not registered", name)
	}
	quick, err := boolParam(q, "quick", s.cfg.Quick)
	if err != nil {
		return cellRequest{}, err
	}
	digest, err := store.Digest(struct {
		Endpoint   string `json:"endpoint"`
		Experiment string `json:"experiment"`
		Quick      bool   `json:"quick"`
	}{Endpoint: "run", Experiment: name, Quick: quick})
	if err != nil {
		return cellRequest{}, err
	}
	return cellRequest{cells: []cell{{experiment: name, digest: digest, compute: func(key store.Key) ([]byte, error) {
		// Stable rendering: host-clock readings would differ between a
		// fresh run and a stored body, breaking byte-identity.
		out, err := exp.Run(&harness.Context{Seed: key.Seed, Quick: quick, Stable: true, Pool: s.requestPool()})
		if err != nil {
			return nil, err
		}
		blocks := out.Blocks
		if blocks == nil {
			blocks = []string{}
		}
		return json.Marshal(runBody{
			Schema: BodySchema, Endpoint: "run",
			Experiment: name, Seed: key.Seed, Quick: quick, Blocks: blocks,
		})
	}}}}, nil
}

// sampleEntry is one resolved anomaly of an appraisal response: the
// raw fleet index plus the share and reason the engine's per-index
// functions resolve it to.
type sampleEntry struct {
	Index     int    `json:"index"`
	Reason    string `json:"reason"`
	Share     string `json:"share"`
	LatencyNs int64  `json:"latency_ns"`
}

// appraiseBody is the /appraise response envelope (and one /fleet
// cell).
type appraiseBody struct {
	Schema       string        `json:"schema"`
	Endpoint     string        `json:"endpoint"`
	Fleet        string        `json:"fleet"`
	Devices      int           `json:"devices"`
	Shards       int           `json:"shards"`
	Seed         int64         `json:"seed"`
	ConfigDigest string        `json:"config_digest"`
	Summary      fleet.Summary `json:"summary"`
	MeanNs       int64         `json:"mean_latency_ns"`
	P50Ns        int64         `json:"p50_latency_ns"`
	P99Ns        int64         `json:"p99_latency_ns"`
	Sample       []sampleEntry `json:"sample"`
}

// fleetSpecRequest is the POST /appraise workload description — the
// JSON face of scenario.FleetSpec.
type fleetSpecRequest struct {
	Name         string         `json:"name"`
	Size         int            `json:"size"`
	TamperEvery  int            `json:"tamper_every,omitempty"`
	TamperOffset int            `json:"tamper_offset,omitempty"`
	BatchSize    int            `json:"batch_size,omitempty"`
	ShardSize    int            `json:"shard_size,omitempty"`
	SampleK      int            `json:"sample_k,omitempty"`
	Shares       []shareRequest `json:"shares,omitempty"`
}

// shareRequest is one device-mix share of a posted fleet spec.
type shareRequest struct {
	Name            string  `json:"name"`
	FirmwareVersion uint64  `json:"firmware_version,omitempty"`
	FirmwarePayload string  `json:"firmware_payload,omitempty"`
	Fraction        float64 `json:"fraction"`
	TamperRate      float64 `json:"tamper_rate,omitempty"`
}

// spec lowers the request to a scenario.FleetSpec.
func (fr fleetSpecRequest) spec() scenario.FleetSpec {
	spec := scenario.FleetSpec{
		Name:         fr.Name,
		Size:         fr.Size,
		TamperEvery:  fr.TamperEvery,
		TamperOffset: fr.TamperOffset,
		BatchSize:    fr.BatchSize,
		ShardSize:    fr.ShardSize,
		SampleK:      fr.SampleK,
	}
	for _, sh := range fr.Shares {
		spec.Shares = append(spec.Shares, scenario.FleetShare{
			Device: scenario.DeviceSpec{
				Name:            sh.Name,
				FirmwareVersion: sh.FirmwareVersion,
				FirmwarePayload: []byte(sh.FirmwarePayload),
			},
			Fraction:   sh.Fraction,
			TamperRate: sh.TamperRate,
		})
	}
	return spec
}

// parseAppraise asks for one fleet appraisal: GET for the reference
// E8 workload at ?size, POST for a full JSON fleet spec.
func (s *Server) parseAppraise(r *http.Request, q url.Values) (cellRequest, error) {
	var spec scenario.FleetSpec
	if r.Method == http.MethodPost {
		if err := checkParams(q, "seed", "nocache"); err != nil {
			return cellRequest{}, err
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var fr fleetSpecRequest
		if err := dec.Decode(&fr); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return cellRequest{}, errf(http.StatusRequestEntityTooLarge, "fleet spec: body exceeds the server cap of %d bytes", tooLarge.Limit)
			}
			return cellRequest{}, errf(http.StatusBadRequest, "fleet spec: %v", err)
		}
		spec = fr.spec()
	} else {
		if err := checkParams(q, "size", "seed", "nocache"); err != nil {
			return cellRequest{}, err
		}
		size, err := intParam(q, "size", 0)
		if err != nil {
			return cellRequest{}, err
		}
		if size <= 0 {
			return cellRequest{}, errf(http.StatusBadRequest, "size %d: want > 0 (GET /appraise?size=N)", size)
		}
		spec = cres.E8FleetSpec(size)
	}
	c, err := s.appraiseCell(spec)
	if err != nil {
		return cellRequest{}, err
	}
	return cellRequest{cells: []cell{c}}, nil
}

// appraiseCell builds the /appraise cell of a fleet spec, for
// /appraise and each /fleet size alike. The digest is the canonical
// compiled config, so identical workloads share one cell no matter
// which request form described them.
func (s *Server) appraiseCell(spec scenario.FleetSpec) (cell, error) {
	if spec.Size > maxFleetSize {
		return cell{}, errf(http.StatusBadRequest, "size %d exceeds the server cap %d", spec.Size, maxFleetSize)
	}
	cf, err := spec.Compile()
	if err != nil {
		return cell{}, errf(http.StatusBadRequest, "%v", err)
	}
	digest := store.DigestBytes(cf.Config.AppendCanonical(nil))
	return cell{experiment: "appraise", digest: digest, compute: func(key store.Key) ([]byte, error) {
		return s.computeAppraise(cf, key)
	}}, nil
}

// computeAppraise builds the fleet engine for one appraisal, runs it
// and renders the envelope.
func (s *Server) computeAppraise(cf *scenario.CompiledFleet, key store.Key) ([]byte, error) {
	eng, err := cf.Engine(key.Seed)
	if err != nil {
		return nil, err
	}
	sum, err := eng.RunParallel(s.requestPool())
	if err != nil {
		return nil, err
	}
	sample := make([]sampleEntry, 0, len(sum.Sample))
	for _, a := range sum.Sample {
		sample = append(sample, sampleEntry{
			Index:     a.Index,
			Reason:    fleet.ReasonString(a.Reason),
			Share:     cf.Config.Shares[eng.ShareOf(a.Index)].Label,
			LatencyNs: a.Latency.Nanoseconds(),
		})
	}
	return json.Marshal(appraiseBody{
		Schema: BodySchema, Endpoint: "appraise",
		Fleet: cf.Spec.Name, Devices: cf.Config.Size, Shards: eng.NumShards(),
		Seed: key.Seed, ConfigDigest: key.Digest, Summary: sum,
		MeanNs: sum.MeanLatency().Nanoseconds(),
		P50Ns:  sum.Quantile(0.5).Nanoseconds(),
		P99Ns:  sum.Quantile(0.99).Nanoseconds(),
		Sample: sample,
	})
}

// fleetHead holds the fixed fields of the /fleet sweep envelope, which
// ends with a "cells" array of raw /appraise bodies: a sweep cell and a
// single appraisal of the same workload share one store identity,
// which is what lets a restarted server resume a half-finished sweep.
type fleetHead struct {
	Schema   string `json:"schema"`
	Endpoint string `json:"endpoint"`
	Seed     int64  `json:"seed"`
	Sizes    []int  `json:"sizes"`
}

// fleetEnvelope renders the sweep envelope: the head's fields, then
// ,"cells":[b0,b1,…]}. Every body is compact JSON as json.Marshal wrote
// it, computed now or read from the store, so splicing the bodies in
// unchanged yields the bytes json.Marshal would give for the whole
// envelope, without validating and re-compacting each body again.
func fleetEnvelope(seed int64, sizes []int, bodies [][]byte) ([]byte, error) {
	head, err := json.Marshal(fleetHead{Schema: BodySchema, Endpoint: "fleet", Seed: seed, Sizes: sizes})
	if err != nil {
		return nil, err
	}
	n := len(head) + len(`,"cells":[]`)
	for _, b := range bodies {
		n += len(b) + 1 // the body and its separator
	}
	out := append(make([]byte, 0, n), head[:len(head)-1]...) // drop the head's closing brace
	out = append(out, `,"cells":[`...)
	for i, b := range bodies {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, b...)
	}
	return append(out, "]}"...), nil
}

// parseFleet asks for the reference workload at each of ?sizes: one
// /appraise cell per size, inside the sweep envelope.
func (s *Server) parseFleet(r *http.Request, q url.Values) (cellRequest, error) {
	if err := checkParams(q, "sizes", "seed", "nocache"); err != nil {
		return cellRequest{}, err
	}
	sizes := cres.FleetSizes(s.cfg.Quick)
	if v := q.Get("sizes"); v != "" {
		sizes = nil
		for _, part := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return cellRequest{}, errf(http.StatusBadRequest, "sizes %q: want comma-separated integers", v)
			}
			if n <= 0 {
				return cellRequest{}, errf(http.StatusBadRequest, "sizes: %d: want > 0", n)
			}
			sizes = append(sizes, n)
		}
	}
	if len(sizes) > maxSweepSizes {
		return cellRequest{}, errf(http.StatusBadRequest, "%d sizes exceed the server cap %d", len(sizes), maxSweepSizes)
	}
	cells := make([]cell, len(sizes))
	for i, n := range sizes {
		c, err := s.appraiseCell(cres.E8FleetSpec(n))
		if err != nil {
			return cellRequest{}, err
		}
		cells[i] = c
	}
	return cellRequest{cells: cells, envelope: func(seed int64, bodies [][]byte) ([]byte, error) {
		return fleetEnvelope(seed, sizes, bodies)
	}}, nil
}

// campaignBody is the /campaign response envelope.
type campaignBody struct {
	Schema             string         `json:"schema"`
	Endpoint           string         `json:"endpoint"`
	Seed               int64          `json:"seed"`
	Seeds              int            `json:"seeds"`
	ConfigDigest       string         `json:"config_digest"`
	Plans              []string       `json:"plans"`
	Rows               []cres.E12Row  `json:"rows"`
	Cells              []cres.E12Cell `json:"cells"`
	CRESDetectRate     float64        `json:"cres_detect_rate"`
	BaselineDetectRate float64        `json:"baseline_detect_rate"`
	CRESRecoverRate    float64        `json:"cres_recover_rate"`
}

// parseCampaign asks for the E12 scenario-campaign matrix.
func (s *Server) parseCampaign(r *http.Request, q url.Values) (cellRequest, error) {
	if err := checkParams(q, "seed", "seeds", "plan", "nocache"); err != nil {
		return cellRequest{}, err
	}
	seeds, err := intParam(q, "seeds", 3)
	if err != nil {
		return cellRequest{}, err
	}
	if seeds <= 0 || seeds > maxCampaignSeeds {
		return cellRequest{}, errf(http.StatusBadRequest, "seeds %d: want in [1, %d]", seeds, maxCampaignSeeds)
	}
	plans, err := scenario.ParsePlans(q.Get("plan"))
	if err != nil {
		return cellRequest{}, errf(http.StatusBadRequest, "%v", err)
	}
	planNames := make([]string, len(plans))
	for i, p := range plans {
		planNames[i] = p.Name
	}
	digest, err := store.Digest(struct {
		Endpoint string                `json:"endpoint"`
		Seeds    int                   `json:"seeds"`
		Plans    []scenario.AttackPlan `json:"plans"`
	}{Endpoint: "campaign", Seeds: seeds, Plans: plans})
	if err != nil {
		return cellRequest{}, err
	}
	return cellRequest{cells: []cell{{experiment: "campaign", digest: digest, compute: func(key store.Key) ([]byte, error) {
		res, err := cres.RunE12Campaign(scenario.CampaignSpec{
			RootSeed: key.Seed, Seeds: seeds, Plans: plans,
		}, s.requestPool())
		if err != nil {
			return nil, err
		}
		return json.Marshal(campaignBody{
			Schema: BodySchema, Endpoint: "campaign",
			Seed: key.Seed, Seeds: seeds, ConfigDigest: key.Digest, Plans: planNames,
			Rows: res.Rows, Cells: res.Cells,
			CRESDetectRate:     res.CRESDetectRate,
			BaselineDetectRate: res.BaselineDetectRate,
			CRESRecoverRate:    res.CRESRecoverRate,
		})
	}}}}, nil
}

// topologyBody is the /topology response envelope: one E13 cell plus
// its event timeline.
type topologyBody struct {
	Schema       string            `json:"schema"`
	Endpoint     string            `json:"endpoint"`
	Seed         int64             `json:"seed"`
	Kind         string            `json:"kind"`
	Size         int               `json:"size"`
	Fanout       int               `json:"fanout"`
	DwellNs      int64             `json:"dwell_ns"`
	Mode         string            `json:"mode"`
	Worm         string            `json:"worm"`
	Faults       string            `json:"faults"`
	ConfigDigest string            `json:"config_digest"`
	Cell         cres.E13Cell      `json:"cell"`
	Events       []cres.SwarmEvent `json:"events"`
}

// parseTopology asks for one worm-over-fleet cell with its timeline —
// the service face of cresim -topology, with the same strict
// valid-value errors.
func (s *Server) parseTopology(r *http.Request, q url.Values) (cellRequest, error) {
	if err := checkParams(q, "kind", "size", "fanout", "dwell", "mode", "worm", "faults", "seed", "nocache"); err != nil {
		return cellRequest{}, err
	}
	kind := q.Get("kind")
	if err := oneOfParam("kind", kind, scenario.TopologyKinds()); err != nil {
		return cellRequest{}, err
	}
	size, err := intParam(q, "size", 10)
	if err != nil {
		return cellRequest{}, err
	}
	if size <= 0 || size > maxTopologySize {
		return cellRequest{}, errf(http.StatusBadRequest, "size %d: want in [1, %d]", size, maxTopologySize)
	}
	fanout, err := intParam(q, "fanout", 0)
	if err != nil {
		return cellRequest{}, err
	}
	mode := q.Get("mode")
	if mode == "" {
		mode = cres.SwarmCooperative
	}
	if err := oneOfParam("mode", mode, cres.SwarmModes()); err != nil {
		return cellRequest{}, err
	}
	worm := q.Get("worm")
	if worm == "" {
		worm = "secure-probe"
	}
	if err := oneOfParam("worm", worm, attack.Names()); err != nil {
		return cellRequest{}, err
	}
	faults := q.Get("faults")
	if faults == "" {
		faults = "none"
	}
	level, err := cres.LookupFaultLevel(faults)
	if err != nil {
		return cellRequest{}, errf(http.StatusBadRequest, "faults: %v", err)
	}
	dwell := 2 * time.Millisecond
	if v := q.Get("dwell"); v != "" {
		dwell, err = time.ParseDuration(v)
		if err != nil || dwell <= 0 {
			return cellRequest{}, errf(http.StatusBadRequest, "dwell %q: want a positive duration (e.g. 2ms)", v)
		}
		// The cell simulates the dwell in virtual time, monitor tick by
		// monitor tick — an hours-long dwell is a denial of service,
		// not a workload.
		if dwell > maxDwell {
			return cellRequest{}, errf(http.StatusBadRequest, "dwell %v exceeds the server cap %v", dwell, maxDwell)
		}
	}
	digest, err := store.Digest(struct {
		Endpoint string `json:"endpoint"`
		Kind     string `json:"kind"`
		Size     int    `json:"size"`
		Fanout   int    `json:"fanout"`
		DwellNs  int64  `json:"dwell_ns"`
		Mode     string `json:"mode"`
		Worm     string `json:"worm"`
		Faults   string `json:"faults"`
	}{Endpoint: "topology", Kind: kind, Size: size, Fanout: fanout,
		DwellNs: dwell.Nanoseconds(), Mode: mode, Worm: worm, Faults: level.Name})
	if err != nil {
		return cellRequest{}, err
	}
	if _, err := (scenario.TopologySpec{Kind: kind, Size: size, Fanout: fanout}).Compile(); err != nil {
		// Spec-shape errors (too few nodes, bad fanout) are the
		// requester's, not the server's. None depends on the seed.
		return cellRequest{}, errf(http.StatusBadRequest, "%v", err)
	}
	return cellRequest{cells: []cell{{experiment: "topology", digest: digest, compute: func(key store.Key) ([]byte, error) {
		spec := scenario.TopologySpec{Kind: kind, Size: size, Fanout: fanout, Seed: key.Seed}
		out, err := cres.RunSwarmUnderFaults(spec, dwell, mode, worm, key.Seed, level.Spec)
		if err != nil {
			return nil, err
		}
		events := out.Events
		if events == nil {
			events = []cres.SwarmEvent{}
		}
		return json.Marshal(topologyBody{
			Schema: BodySchema, Endpoint: "topology",
			Seed: key.Seed, Kind: kind, Size: size, Fanout: fanout,
			DwellNs: dwell.Nanoseconds(), Mode: mode, Worm: worm, Faults: level.Name,
			ConfigDigest: key.Digest, Cell: out.Cell, Events: events,
		})
	}}}}, nil
}

// oneOfParam is the query-parameter face of the CLIs' oneOf rule.
func oneOfParam(name, val string, valid []string) error {
	if slices.Contains(valid, val) {
		return nil
	}
	return errf(http.StatusBadRequest, "%s: unknown value %q (valid: %s)", name, val, strings.Join(valid, ", "))
}

// resultEntry is one stored record in a /results listing.
type resultEntry struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Digest     string  `json:"config_digest"`
	Bytes      int     `json:"bytes"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	UnixTime   int64   `json:"unix_time,omitempty"`
	Body       string  `json:"body,omitempty"`
}

// resultsBody is the /results response envelope.
type resultsBody struct {
	Schema   string        `json:"schema"`
	Endpoint string        `json:"endpoint"`
	Store    string        `json:"store"`
	Total    int           `json:"total_records"`
	Records  []resultEntry `json:"records"`
}

// handleResults queries the persistent result store: every key's
// latest record (or full history), filterable by experiment and seed.
func (s *Server) handleResults(r *http.Request) (*response, error) {
	q := r.URL.Query()
	if err := checkParams(q, "experiment", "seed", "history", "body", "limit"); err != nil {
		return nil, err
	}
	if s.cfg.Store == nil {
		return nil, errf(http.StatusNotFound, "no result store configured (start with -store)")
	}
	history, err := boolParam(q, "history", false)
	if err != nil {
		return nil, err
	}
	withBody, err := boolParam(q, "body", false)
	if err != nil {
		return nil, err
	}
	limit, err := intParam(q, "limit", 0)
	if err != nil {
		return nil, err
	}
	if limit < 0 {
		return nil, errf(http.StatusBadRequest, "limit %d: want >= 0 (0 = no limit)", limit)
	}
	expFilter := q.Get("experiment")
	var seedFilter *int64
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "seed %q: want a base-10 integer", v)
		}
		seedFilter = &seed
	}

	records := []resultEntry{}
	add := func(rec store.Record) {
		entry := resultEntry{
			Experiment: rec.Experiment, Seed: rec.Seed, Digest: rec.Digest,
			Bytes: len(rec.Body), NsPerOp: rec.NsPerOp, UnixTime: rec.UnixTime,
		}
		if withBody {
			entry.Body = rec.Body
		}
		records = append(records, entry)
	}
	for _, key := range s.cfg.Store.Keys() {
		if expFilter != "" && key.Experiment != expFilter {
			continue
		}
		if seedFilter != nil && key.Seed != *seedFilter {
			continue
		}
		if history {
			for _, rec := range s.cfg.Store.History(key) {
				add(rec)
			}
		} else if rec, ok := s.cfg.Store.Get(key); ok {
			add(rec)
		}
	}
	if limit > 0 && len(records) > limit {
		records = records[:limit]
	}
	body, err := json.Marshal(resultsBody{
		Schema: BodySchema, Endpoint: "results",
		Store: s.cfg.Store.Dir(), Total: s.cfg.Store.Len(), Records: records,
	})
	if err != nil {
		return nil, err
	}
	return &response{body: body}, nil
}

// handleStatz reports the operational counters. Not deterministic,
// never stored.
func (s *Server) handleStatz(r *http.Request) (*response, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return nil, err
	}
	st := s.Stats()
	out := struct {
		Schema      string `json:"schema"`
		Endpoint    string `json:"endpoint"`
		Requests    uint64 `json:"requests"`
		Computed    uint64 `json:"computed"`
		CacheHits   uint64 `json:"cache_hits"`
		Errors      uint64 `json:"errors"`
		Draining    bool   `json:"draining"`
		Store       string `json:"store,omitempty"`
		StoredCells int    `json:"stored_cells,omitempty"`
	}{
		Schema: BodySchema, Endpoint: "statz",
		Requests: st.Requests, Computed: st.Computed,
		CacheHits: st.CacheHits, Errors: st.Errors,
		Draining: s.Draining(),
	}
	if s.cfg.Store != nil {
		out.Store = s.cfg.Store.Dir()
		out.StoredCells = s.cfg.Store.Len()
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return &response{body: body}, nil
}

// handleQuit acknowledges, then begins the graceful drain: the
// response is written first, so the requesting client always hears
// back.
func (s *Server) handleQuit(r *http.Request) (*response, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return nil, err
	}
	body, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Status string `json:"status"`
	}{Schema: BodySchema, Status: "draining"})
	if err != nil {
		return nil, err
	}
	return &response{body: body, quit: true}, nil
}
