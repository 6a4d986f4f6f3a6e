package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cres/internal/store"
)

// testServer builds a server (with a store under dir when dir != "")
// and mounts it on an httptest listener.
func testServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Quick: true, Parallel: 1}
	if dir != "" {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// get fetches a path and returns the status, headers and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header, body
}

// mustGet fetches a path and requires a 200.
func mustGet(t *testing.T, ts *httptest.Server, path string) (http.Header, []byte) {
	t.Helper()
	code, h, body := get(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, body)
	}
	return h, body
}

// errBody decodes an error response, requiring the expected status,
// the JSON {"error": ...} shape and the JSON content type.
func errBody(t *testing.T, ts *httptest.Server, path string, wantCode int) string {
	t.Helper()
	code, h, body := get(t, ts, path)
	if code != wantCode {
		t.Fatalf("GET %s: status %d, want %d: %s", path, code, wantCode, body)
	}
	if ct := h.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("GET %s: error content type %q, want JSON", path, ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("GET %s: error body %q is not {\"error\": ...}", path, body)
	}
	return e.Error
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, "")
	h, body := mustGet(t, ts, "/healthz")
	if ct := h.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q, want JSON", ct)
	}
	if !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatal("body does not end with a newline")
	}
	var out struct{ Schema, Status string }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != BodySchema || out.Status != "ok" {
		t.Fatalf("healthz = %+v", out)
	}
}

func TestExperimentsListsRegistry(t *testing.T) {
	_, ts := testServer(t, "")
	_, body := mustGet(t, ts, "/experiments")
	var out struct{ Experiments []string }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	has := func(name string) bool {
		for _, n := range out.Experiments {
			if n == name {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"E2", "E8", "BV", "SVC"} {
		if !has(want) {
			t.Errorf("experiments %v missing %q", out.Experiments, want)
		}
	}
}

func TestExperimentAllowlist(t *testing.T) {
	srv, err := New(Config{Experiments: []string{"E2"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body := mustGet(t, ts, "/experiments")
	var out struct{ Experiments []string }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Experiments) != 1 || out.Experiments[0] != "E2" {
		t.Fatalf("allowlisted experiments = %v, want [E2]", out.Experiments)
	}
	msg := errBody(t, ts, "/run?experiment=E8", http.StatusBadRequest)
	if !strings.Contains(msg, "E2") {
		t.Fatalf("allowlist error %q does not name the valid experiments", msg)
	}

	if _, err := New(Config{Experiments: []string{"nope"}}); err == nil {
		t.Fatal("New accepted an unknown experiment in the allowlist")
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	h1, body1 := mustGet(t, ts, "/run?experiment=E2&seed=11")
	var out runBody
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Experiment != "E2" || out.Seed != 11 || len(out.Blocks) == 0 {
		t.Fatalf("run body = %+v", out)
	}
	if h1.Get("X-Cres-Cache") != "miss" {
		t.Fatalf("first run X-Cres-Cache = %q, want miss", h1.Get("X-Cres-Cache"))
	}
	h2, body2 := mustGet(t, ts, "/run?experiment=E2&seed=11")
	if !bytes.Equal(body1, body2) {
		t.Fatal("repeat /run response differs")
	}
	if h2.Get("X-Cres-Cache") != "hit" {
		t.Fatalf("repeat run X-Cres-Cache = %q, want hit", h2.Get("X-Cres-Cache"))
	}
	if h1.Get("X-Cres-Digest") == "" || h1.Get("X-Cres-Digest") != h2.Get("X-Cres-Digest") {
		t.Fatal("X-Cres-Digest missing or unstable across repeats")
	}

	msg := errBody(t, ts, "/run?experiment=nope", http.StatusBadRequest)
	if !strings.Contains(msg, "E2") || !strings.Contains(msg, "BV") {
		t.Fatalf("unknown-experiment error %q does not list valid names", msg)
	}
	errBody(t, ts, "/run?experiment=E2&seed=xyz", http.StatusBadRequest)
	errBody(t, ts, "/run?experiment=E2&quick=maybe", http.StatusBadRequest)
}

func TestAppraiseGet(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	h1, body1 := mustGet(t, ts, "/appraise?size=256&seed=7")
	var out appraiseBody
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	// The E8 reference rule tampers every 8th device: 256/8 = 32, all
	// caught, none missed — the classification regression the fleet
	// tests pin, now visible through the service.
	if out.Devices != 256 || out.Summary.Tampered != 32 || out.Summary.Caught != 32 {
		t.Fatalf("appraise summary: devices %d tampered %d caught %d, want 256/32/32",
			out.Devices, out.Summary.Tampered, out.Summary.Caught)
	}
	if out.ConfigDigest != h1.Get("X-Cres-Digest") {
		t.Fatal("body config_digest and X-Cres-Digest disagree")
	}
	if len(out.ConfigDigest) != store.DigestLen {
		t.Fatalf("digest %q: len %d, want %d", out.ConfigDigest, len(out.ConfigDigest), store.DigestLen)
	}
	for _, entry := range out.Sample {
		if entry.Share == "" || entry.Reason == "" {
			t.Fatalf("unresolved sample entry %+v", entry)
		}
	}

	h2, body2 := mustGet(t, ts, "/appraise?size=256&seed=7")
	if !bytes.Equal(body1, body2) {
		t.Fatal("repeat /appraise response differs")
	}
	if h2.Get("X-Cres-Cache") != "hit" {
		t.Fatalf("repeat X-Cres-Cache = %q, want hit", h2.Get("X-Cres-Cache"))
	}

	// nocache forces a fresh computation — which must still serve the
	// exact same bytes (the fresh-vs-stored identity contract).
	h3, body3 := mustGet(t, ts, "/appraise?size=256&seed=7&nocache=1")
	if h3.Get("X-Cres-Cache") != "miss" {
		t.Fatalf("nocache X-Cres-Cache = %q, want miss", h3.Get("X-Cres-Cache"))
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("fresh recomputation differs from stored body")
	}

	// A different seed is a different cell.
	_, body4 := mustGet(t, ts, "/appraise?size=256&seed=8")
	if bytes.Equal(body1, body4) {
		t.Fatal("different seeds served identical bodies")
	}

	errBody(t, ts, "/appraise?size=0", http.StatusBadRequest)
	errBody(t, ts, "/appraise?size=abc", http.StatusBadRequest)
	errBody(t, ts, "/appraise", http.StatusBadRequest)
	msg := errBody(t, ts, fmt.Sprintf("/appraise?size=%d", maxFleetSize+1), http.StatusBadRequest)
	if !strings.Contains(msg, "cap") {
		t.Fatalf("over-cap error %q does not mention the cap", msg)
	}
}

// TestAppraisePostMatchesGet: the POSTed JSON description of the E8
// reference workload must land on the same canonical config digest —
// and therefore the same stored cell and bytes — as GET ?size.
func TestAppraisePostMatchesGet(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	_, getBody := mustGet(t, ts, "/appraise?size=64&seed=7")

	spec := `{"name":"e8","size":64,"tamper_every":8,"tamper_offset":3}`
	resp, err := ts.Client().Post(ts.URL+"/appraise?seed=7", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	postBody, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /appraise: %d: %s", resp.StatusCode, postBody)
	}
	if !bytes.Equal(getBody, postBody) {
		t.Fatal("POSTed spec and GET ?size of the same workload served different bodies")
	}
	if resp.Header.Get("X-Cres-Cache") != "hit" {
		t.Fatalf("POST after GET: X-Cres-Cache = %q, want hit (same canonical digest)", resp.Header.Get("X-Cres-Cache"))
	}

	// Unknown spec fields are rejected, mirroring strict flag parsing.
	resp2, err := ts.Client().Post(ts.URL+"/appraise", "application/json", strings.NewReader(`{"size":8,"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with unknown field: %d, want 400", resp2.StatusCode)
	}
	// And an invalid spec surfaces the scenario compiler's error.
	resp3, err := ts.Client().Post(ts.URL+"/appraise", "application/json", strings.NewReader(`{"name":"x","size":8,"shares":[{"name":"a","fraction":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with bad fractions: %d, want 400", resp3.StatusCode)
	}
	// A body past the cap is refused with 413 and a JSON reason.
	oversize := `{"name":"` + strings.Repeat("x", maxBodyBytes) + `","size":8}`
	resp4, err := ts.Client().Post(ts.URL+"/appraise", "application/json", strings.NewReader(oversize))
	if err != nil {
		t.Fatal(err)
	}
	body4, _ := io.ReadAll(resp4.Body)
	resp4.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if resp4.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(body4, &e) != nil || !strings.Contains(e.Error, "cap") {
		t.Fatalf("POST of an oversize spec: %d %s, want 413 with a JSON reason naming the cap", resp4.StatusCode, body4)
	}
}

func TestFleetSweepAndResume(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, dir)
	h1, body1 := mustGet(t, ts, "/fleet?sizes=4,64&seed=7")
	if h1.Get("X-Cres-Cache") != "hit=0;miss=2" {
		t.Fatalf("first sweep X-Cres-Cache = %q, want hit=0;miss=2", h1.Get("X-Cres-Cache"))
	}
	var out fleetBody
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(out.Cells))
	}
	// Each sweep cell is a full appraise body sharing the /appraise
	// identity: fetching the size singly must serve the same bytes.
	_, single := mustGet(t, ts, "/appraise?size=64&seed=7")
	if !bytes.Equal(bytes.TrimSuffix(single, []byte("\n")), []byte(out.Cells[1])) {
		t.Fatal("sweep cell differs from the single /appraise body of the same workload")
	}
	if srv.Stats().Computed != 2 {
		t.Fatalf("computed %d cells, want 2", srv.Stats().Computed)
	}

	// Widening the sweep resumes: the stored sizes are served, only
	// the new size is computed.
	h2, body2 := mustGet(t, ts, "/fleet?sizes=4,64,512&seed=7")
	if h2.Get("X-Cres-Cache") != "hit=2;miss=1" {
		t.Fatalf("widened sweep X-Cres-Cache = %q, want hit=2;miss=1", h2.Get("X-Cres-Cache"))
	}
	var out2 fleetBody
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(out.Cells[0]), []byte(out2.Cells[0])) || !bytes.Equal([]byte(out.Cells[1]), []byte(out2.Cells[1])) {
		t.Fatal("resumed sweep served different bytes for stored cells")
	}

	errBody(t, ts, "/fleet?sizes=4,x", http.StatusBadRequest)
	errBody(t, ts, "/fleet?sizes=0", http.StatusBadRequest)
	errBody(t, ts, "/fleet?sizes="+strings.Repeat("4,", maxSweepSizes)+"4", http.StatusBadRequest)
}

func TestTopologyEndpoint(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	_, body1 := mustGet(t, ts, "/topology?kind=ring&size=6&seed=7")
	var out topologyBody
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "ring" || out.Size != 6 || out.Mode != "cres-coop" || out.Worm != "secure-probe" || out.Faults != "none" {
		t.Fatalf("topology defaults: %+v", out)
	}
	if out.Cell.Infected <= 0 {
		t.Fatal("worm infected nobody — not even patient zero")
	}
	_, body2 := mustGet(t, ts, "/topology?kind=ring&size=6&seed=7")
	if !bytes.Equal(body1, body2) {
		t.Fatal("repeat /topology response differs")
	}

	for _, bad := range []struct{ path, valid string }{
		{"/topology?kind=pentagon", "ring"},
		{"/topology?kind=ring&mode=sideways", "cres-coop"},
		{"/topology?kind=ring&worm=nope", "secure-probe"},
		{"/topology?kind=ring&faults=extreme", "high"},
	} {
		msg := errBody(t, ts, bad.path, http.StatusBadRequest)
		if !strings.Contains(msg, bad.valid) {
			t.Errorf("error for %s = %q: does not list valid value %q", bad.path, msg, bad.valid)
		}
	}
	errBody(t, ts, "/topology?kind=ring&dwell=fast", http.StatusBadRequest)
	errBody(t, ts, fmt.Sprintf("/topology?kind=ring&size=%d", maxTopologySize+1), http.StatusBadRequest)
	// A fuzz regression: an hours-long dwell simulates hours of
	// virtual monitor ticks — it must be refused, not attempted. And a
	// size below the topology minimum is the requester's error (400),
	// not a compute failure (500).
	errBody(t, ts, "/topology?kind=ring&dwell=2000h", http.StatusBadRequest)
	errBody(t, ts, "/topology?kind=ring&size=1", http.StatusBadRequest)
}

func TestCampaignEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign matrix in -short mode")
	}
	_, ts := testServer(t, t.TempDir())
	h1, body1 := mustGet(t, ts, "/campaign?seed=7&seeds=1&plan=none")
	var out campaignBody
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Seeds != 1 || len(out.Rows) == 0 || len(out.Cells) == 0 {
		t.Fatalf("campaign body: seeds %d, %d rows, %d cells", out.Seeds, len(out.Rows), len(out.Cells))
	}
	if out.CRESDetectRate <= out.BaselineDetectRate {
		t.Fatalf("CRES detect rate %v not above baseline %v", out.CRESDetectRate, out.BaselineDetectRate)
	}
	h2, body2 := mustGet(t, ts, "/campaign?seed=7&seeds=1&plan=none")
	if !bytes.Equal(body1, body2) {
		t.Fatal("repeat /campaign response differs")
	}
	if h2.Get("X-Cres-Cache") != "hit" || h1.Get("X-Cres-Cache") != "miss" {
		t.Fatalf("campaign cache headers: first %q then %q", h1.Get("X-Cres-Cache"), h2.Get("X-Cres-Cache"))
	}

	errBody(t, ts, "/campaign?seeds=0", http.StatusBadRequest)
	errBody(t, ts, fmt.Sprintf("/campaign?seeds=%d", maxCampaignSeeds+1), http.StatusBadRequest)
	errBody(t, ts, "/campaign?plan=mystery-plan", http.StatusBadRequest)
}

func TestResultsEndpoint(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	mustGet(t, ts, "/appraise?size=8&seed=7")
	mustGet(t, ts, "/appraise?size=16&seed=7")
	mustGet(t, ts, "/appraise?size=8&seed=7&nocache=1") // second record, same key

	_, body := mustGet(t, ts, "/results")
	var out resultsBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != 2 {
		t.Fatalf("%d latest records, want 2 (one per key)", len(out.Records))
	}
	if out.Total != 3 {
		t.Fatalf("total_records %d, want 3", out.Total)
	}
	for _, rec := range out.Records {
		if rec.Experiment != "appraise" || rec.Seed != 7 || rec.Bytes == 0 || rec.Body != "" {
			t.Fatalf("unexpected record %+v", rec)
		}
	}

	_, body = mustGet(t, ts, "/results?history=1")
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != 3 {
		t.Fatalf("%d history records, want 3", len(out.Records))
	}

	_, body = mustGet(t, ts, "/results?body=1&limit=1")
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != 1 || out.Records[0].Body == "" {
		t.Fatalf("body=1&limit=1: %d records, body %q", len(out.Records), out.Records[0].Body[:min(20, len(out.Records[0].Body))])
	}

	// A negative limit is a usage error, not a silent "no limit".
	if msg := errBody(t, ts, "/results?limit=-1", http.StatusBadRequest); !strings.Contains(msg, "0 = no limit") {
		t.Fatalf("limit=-1: error %q does not name the valid range", msg)
	}

	_, body = mustGet(t, ts, "/results?experiment=campaign")
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != 0 {
		t.Fatalf("campaign filter matched %d records, want 0", len(out.Records))
	}

	// Without a store the endpoint says so.
	_, bare := testServer(t, "")
	errBody(t, bare, "/results", http.StatusNotFound)
}

func TestStatzAndErrorCounters(t *testing.T) {
	srv, ts := testServer(t, t.TempDir())
	mustGet(t, ts, "/appraise?size=8")
	mustGet(t, ts, "/appraise?size=8")
	errBody(t, ts, "/appraise?size=0", http.StatusBadRequest)

	_, body := mustGet(t, ts, "/statz")
	var out struct {
		Requests    uint64 `json:"requests"`
		Computed    uint64 `json:"computed"`
		CacheHits   uint64 `json:"cache_hits"`
		Errors      uint64 `json:"errors"`
		StoredCells int    `json:"stored_cells"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Computed != 1 || out.CacheHits != 1 || out.Errors != 1 || out.StoredCells != 1 {
		t.Fatalf("statz = %+v", out)
	}
	if st := srv.Stats(); st.Computed != 1 || st.CacheHits != 1 {
		t.Fatalf("Stats() = %+v", st)
	}
}

func TestStrictParamsAndRouting(t *testing.T) {
	_, ts := testServer(t, "")
	msg := errBody(t, ts, "/appraise?size=4&bogus=1", http.StatusBadRequest)
	if !strings.Contains(msg, "bogus") || !strings.Contains(msg, "size") {
		t.Fatalf("unknown-param error %q does not name the parameter and the allowed set", msg)
	}
	errBody(t, ts, "/healthz?verbose=1", http.StatusBadRequest)

	msg = errBody(t, ts, "/nope", http.StatusNotFound)
	if !strings.Contains(msg, "/appraise") {
		t.Fatalf("404 body %q does not list the endpoints", msg)
	}

	resp, err := ts.Client().Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: %d, want 405", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/quit")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /quit: %d, want 405", resp.StatusCode)
	}
}

func TestQuitRefusesNewRequests(t *testing.T) {
	srv, ts := testServer(t, "")
	resp, err := ts.Client().Post(ts.URL+"/quit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Fatalf("POST /quit: %d %s", resp.StatusCode, body)
	}
	if !srv.Draining() {
		t.Fatal("server not draining after /quit")
	}
	errBody(t, ts, "/healthz", http.StatusServiceUnavailable)
}

// TestRestartServesIdenticalBytes: a new process over the same store
// answers from disk, byte-for-byte.
func TestRestartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	paths := []string{"/appraise?size=128&seed=7", "/run?experiment=E2&seed=7", "/topology?kind=star&size=5&seed=7"}

	first := make(map[string][]byte)
	srv1, ts1 := testServer(t, dir)
	for _, p := range paths {
		_, body := mustGet(t, ts1, p)
		first[p] = body
	}
	if srv1.Stats().Computed != uint64(len(paths)) {
		t.Fatalf("first server computed %d, want %d", srv1.Stats().Computed, len(paths))
	}

	// The first process ends, releasing the store to the next one.
	if err := srv1.cfg.Store.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := testServer(t, dir)
	for _, p := range paths {
		h, body := mustGet(t, ts2, p)
		if !bytes.Equal(first[p], body) {
			t.Fatalf("restarted server served different bytes for %s", p)
		}
		if h.Get("X-Cres-Cache") != "hit" {
			t.Fatalf("restarted server recomputed %s", p)
		}
	}
	if srv2.Stats().Computed != 0 {
		t.Fatalf("restarted server computed %d cells, want 0", srv2.Stats().Computed)
	}
}

// TestConcurrentMixedLoad hammers the server with a mixed request
// script from many goroutines and requires every response to be
// byte-identical to the serially computed reference — the
// concurrent-shell-over-deterministic-engine contract, and the test
// the -race run leans on.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	paths := []string{
		"/healthz",
		"/experiments",
		"/appraise?size=64&seed=7",
		"/appraise?size=256&seed=7",
		"/appraise?size=64&seed=9",
		"/fleet?sizes=4,64&seed=7",
		"/run?experiment=E2&seed=7",
		"/topology?kind=ring&size=5&seed=7",
	}
	reference := make(map[string][]byte)
	for _, p := range paths {
		_, body := mustGet(t, ts, p)
		reference[p] = body
	}

	goroutines, iters := 16, 625 // 10k requests
	if testing.Short() {
		goroutines, iters = 8, 25
	}
	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := paths[(g+i)%len(paths)]
				resp, err := ts.Client().Get(ts.URL + p)
				if err != nil {
					failures <- fmt.Sprintf("GET %s: %v", p, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					failures <- fmt.Sprintf("GET %s: read: %v", p, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					failures <- fmt.Sprintf("GET %s: status %d", p, resp.StatusCode)
					return
				}
				if !bytes.Equal(body, reference[p]) {
					failures <- fmt.Sprintf("GET %s: body differs from serial reference", p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
}

// TestConcurrentIdenticalMissesComputeOnce: identical requests that
// miss the store together share one compute. The first computes and
// records the cell; the rest wait for it and are served its bytes as
// hits.
func TestConcurrentIdenticalMissesComputeOnce(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, dir)
	const n = 8
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Get(ts.URL + "/appraise?size=4096&seed=7")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if bodies[i], err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d, err %v", i, resp.StatusCode, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0's", i)
		}
	}
	if st := srv.Stats(); st.Computed != 1 || st.CacheHits != n-1 {
		t.Fatalf("computed %d and hit %d for %d identical requests, want 1 and %d", st.Computed, st.CacheHits, n, n-1)
	}
	if recs := srv.cfg.Store.Len(); recs != 1 {
		t.Fatalf("store holds %d records, want 1", recs)
	}
}
