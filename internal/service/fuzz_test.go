package service

import (
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzAPIRequest drives arbitrary request paths through the full
// handler stack: whatever the bytes, the server must answer with a
// well-formed JSON response — never panic, never 5xx. /run is
// allowlisted to E2 and costly inputs are skipped, so the fuzzer
// spends its budget on the parsing and validation surface, not on big
// fleets; /campaign and /quit are skipped (matrix compute and global
// drain respectively — both would starve exploration, neither parses
// anything the other endpoints don't).
func FuzzAPIRequest(f *testing.F) {
	f.Add("/healthz")
	f.Add("/experiments")
	f.Add("/run?experiment=E2&seed=1")
	f.Add("/run?experiment=E8")
	f.Add("/appraise?size=8&seed=2")
	f.Add("/appraise?size=-1")
	f.Add("/fleet?sizes=4,8")
	f.Add("/fleet?sizes=4,,8")
	f.Add("/topology?kind=ring&size=4&dwell=1ms&mode=cres-coop")
	f.Add("/topology?kind=mesh&faults=low")
	f.Add("/topology?kind=star&size=5&fanout=3")
	f.Add("/appraise?size=4&size=8")
	f.Add("/results?history=1&body=1&limit=2")
	f.Add("/results?limit=-1")
	f.Add("/statz")
	f.Add("/nope?x=1")
	f.Add("/appraise?size=999999999999999999999")
	f.Add("/run?experiment=%45%32")
	f.Add("/#00?00%") // parses as a request URI, not as a URL

	cfg := Config{Quick: true, Parallel: 1, Experiments: []string{"E2"}}
	f.Fuzz(func(t *testing.T, path string) {
		u, err := url.ParseRequestURI(path)
		if err != nil || !strings.HasPrefix(path, "/") || costly(u.Query()) {
			t.Skip()
		}
		// Raw space/control bytes never reach a handler — a real
		// listener rejects the request line before routing — but they
		// make httptest.NewRequest's synthetic request line panic.
		for _, r := range path {
			if r <= ' ' || r == 0x7f {
				t.Skip()
			}
		}
		if strings.HasPrefix(path, "/campaign") || strings.HasPrefix(path, "/quit") {
			t.Skip()
		}
		// A fresh server per input keeps iterations independent (no
		// cross-input cache hits or drain state); New is cheap — a mux
		// and two maps.
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("GET", path, nil)
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, req)
		if rr.Code >= 500 {
			t.Fatalf("GET %q: status %d: %s", path, rr.Code, rr.Body.String())
		}
		if rr.Code >= 300 && rr.Code < 400 {
			// ServeMux canonicalizes paths like "/." with a 301 before
			// any handler runs; its redirect body is not ours to shape.
			t.Skip()
		}
		if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("GET %q: content type %q, want JSON", path, ct)
		}
		body := rr.Body.Bytes()
		if len(body) == 0 || body[len(body)-1] != '\n' {
			t.Fatalf("GET %q: body %q does not end with a newline", path, body)
		}
	})
}

// The fuzz target's compute budget: inputs asking for more are
// skipped, not served.
const (
	fuzzMaxSize  = 64
	fuzzMaxDwell = 10 * time.Millisecond
)

// costly reports whether a request asks for a fleet or topology larger
// than fuzzMaxSize or a worm dwell longer than fuzzMaxDwell. Values
// that do not parse are not costly: the server rejects them.
func costly(q url.Values) bool {
	var sizes []string
	sizes = append(sizes, q["size"]...)
	for _, v := range q["sizes"] {
		sizes = append(sizes, strings.Split(v, ",")...)
	}
	for _, v := range sizes {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n > fuzzMaxSize {
			return true
		}
	}
	for _, v := range q["dwell"] {
		if d, err := time.ParseDuration(v); err == nil && d > fuzzMaxDwell {
			return true
		}
	}
	return false
}
