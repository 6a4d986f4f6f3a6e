package service

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// goldenRequest is one step of the service golden script.
type goldenRequest struct {
	method, path, body string
}

// goldenScript exercises every compute endpoint's success path (cache
// misses, hits and forced recomputes) and every single-parameter
// validation error, plus the router's 404 and 405. /results and
// /statz are left out: their bodies carry host-clock fields and the
// temporary store path.
var goldenScript = []goldenRequest{
	{"GET", "/healthz", ""},
	{"GET", "/experiments", ""},

	// /run: a miss, its hit, and a full-mode forced recompute.
	{"GET", "/run?experiment=E2&seed=7", ""},
	{"GET", "/run?experiment=E2&seed=7", ""},
	{"GET", "/run?experiment=E2&seed=7&quick=0&nocache=1", ""},

	// /appraise: GET and its hit; a POSTed spec landing on a GET's
	// cell; a multi-share POST and its forced recompute.
	{"GET", "/appraise?size=256&seed=7", ""},
	{"GET", "/appraise?size=256&seed=7", ""},
	{"GET", "/appraise?size=64&seed=7", ""},
	{"POST", "/appraise?seed=7", `{"name":"e8","size":64,"tamper_every":8,"tamper_offset":3}`},
	{"POST", "/appraise?seed=3", goldenMixSpec},
	{"POST", "/appraise?seed=3&nocache=1", goldenMixSpec},

	// /fleet: explicit and default sizes, each twice.
	{"GET", "/fleet?sizes=4,64,512&seed=7", ""},
	{"GET", "/fleet?sizes=4,64,512&seed=7", ""},
	{"GET", "/fleet?seed=5", ""},
	{"GET", "/fleet?seed=5", ""},

	{"GET", "/campaign?seeds=1&plan=none", ""},
	{"GET", "/campaign?seeds=1&plan=none", ""},

	{"GET", "/topology?kind=ring&size=8&seed=7", ""},
	{"GET", "/topology?kind=star&size=5&mode=cres-isolated&worm=bus-flood&seed=3", ""},
	{"GET", "/topology?kind=random&size=10&fanout=2&dwell=1ms&faults=low&seed=11", ""},

	// One request per validation error.
	{"GET", "/healthz?verbose=1", ""},
	{"GET", "/experiments?all=1", ""},
	{"GET", "/run?experiment=E2&bogus=1", ""},
	{"GET", "/run", ""},
	{"GET", "/run?experiment=nope", ""},
	{"GET", "/run?experiment=E2&seed=xyz", ""},
	{"GET", "/run?experiment=E2&quick=maybe", ""},
	{"GET", "/run?experiment=E2&nocache=maybe", ""},
	{"GET", "/appraise?size=4&bogus=1", ""},
	{"GET", "/appraise", ""},
	{"GET", "/appraise?size=abc", ""},
	{"GET", "/appraise?size=0", ""},
	{"GET", "/appraise?size=1048577", ""},
	{"GET", "/appraise?size=4&seed=xyz", ""},
	{"GET", "/appraise?size=4&nocache=maybe", ""},
	{"POST", "/appraise?size=4", `{"name":"e8","size":4}`},
	{"POST", "/appraise", `{"size":8,"bogus":1}`},
	{"POST", "/appraise", `{"name":"x","size":8,"shares":[{"name":"a","fraction":0.5}]}`},
	{"POST", "/appraise", `{"name":"x","size":1048577}`},
	{"POST", "/appraise?seed=xyz", `{"name":"e8","size":4}`},
	{"POST", "/appraise?nocache=maybe", `{"name":"e8","size":4}`},
	{"GET", "/fleet?sizes=4&bogus=1", ""},
	{"GET", "/fleet?sizes=4,x", ""},
	{"GET", "/fleet?sizes=0", ""},
	{"GET", "/fleet?sizes=" + strings.Repeat("4,", 16) + "4", ""},
	{"GET", "/fleet?sizes=4,1048577", ""},
	{"GET", "/fleet?sizes=4&seed=xyz", ""},
	{"GET", "/fleet?sizes=4&nocache=maybe", ""},
	{"GET", "/campaign?seeds=1&bogus=1", ""},
	{"GET", "/campaign?seeds=abc", ""},
	{"GET", "/campaign?seeds=0", ""},
	{"GET", "/campaign?seeds=9", ""},
	{"GET", "/campaign?seeds=1&plan=mystery-plan", ""},
	{"GET", "/campaign?seeds=1&seed=xyz", ""},
	{"GET", "/campaign?seeds=1&nocache=maybe", ""},
	{"GET", "/topology?kind=ring&bogus=1", ""},
	{"GET", "/topology", ""},
	{"GET", "/topology?kind=pentagon", ""},
	{"GET", "/topology?kind=ring&size=abc", ""},
	{"GET", "/topology?kind=ring&size=65", ""},
	{"GET", "/topology?kind=ring&size=1", ""},
	{"GET", "/topology?kind=ring&fanout=abc", ""},
	{"GET", "/topology?kind=ring&size=6&fanout=3", ""},
	{"GET", "/topology?kind=ring&mode=sideways", ""},
	{"GET", "/topology?kind=ring&worm=nope", ""},
	{"GET", "/topology?kind=ring&faults=extreme", ""},
	{"GET", "/topology?kind=ring&dwell=fast", ""},
	{"GET", "/topology?kind=ring&dwell=2000h", ""},
	{"GET", "/topology?kind=ring&seed=xyz", ""},
	{"GET", "/topology?kind=ring&nocache=maybe", ""},
	{"GET", "/nope", ""},
	{"PUT", "/appraise?size=4", ""},
}

// goldenMixSpec is a POST /appraise spec with more than one device
// share, per-share tamper rates and a non-default batch size.
const goldenMixSpec = `{"name":"mix","size":96,"batch_size":32,"shares":[` +
	`{"name":"sensor","fraction":0.5,"tamper_rate":0.05},` +
	`{"name":"gateway","firmware_version":2,"firmware_payload":"gateway firmware","fraction":0.25,"tamper_rate":0.1},` +
	`{"name":"meter","fraction":0.25}]}`

// TestServiceGolden pins cresd's wire bytes across commits: it replays
// goldenScript against a fresh store-backed server and compares, per
// request, the status, the X-Cres-Digest, X-Cres-Cache and
// Content-Type headers and the body's SHA-256 — plus the full body of
// every error — with the committed golden file. Regenerate with (the
// package goes before -update-golden, which go test passes on to the
// test binary along with everything after it):
//
//	go test ./internal/service -run TestServiceGolden -update-golden
func TestServiceGolden(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	var got strings.Builder
	for _, step := range goldenScript {
		req, err := http.NewRequest(step.method, ts.URL+step.path, strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		if step.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", step.method, step.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: read: %v", step.method, step.path, err)
		}
		fmt.Fprintf(&got, "%s %s -> %d digest=%s cache=%s type=%q sha256=%x",
			step.method, step.path, resp.StatusCode,
			orDash(resp.Header.Get("X-Cres-Digest")), orDash(resp.Header.Get("X-Cres-Cache")),
			resp.Header.Get("Content-Type"), sha256.Sum256(body))
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(&got, " body=%s", strings.TrimSuffix(string(body), "\n"))
		}
		got.WriteString("\n")
	}

	golden := filepath.Join("testdata", "service_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("service responses drifted from %s (re-run with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got.String(), want)
	}
}

// orDash renders an absent header as "-".
func orDash(v string) string {
	if v == "" {
		return "-"
	}
	return v
}
