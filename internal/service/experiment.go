package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"cres/internal/harness"
	"cres/internal/report"
)

// This file registers SVC, the resident-service benchmark experiment:
// a real loopback cresd answering a deterministic scripted request
// mix, with every repeat response checked byte-identical against the
// first. It times the requests bench/'s svc-cold and svc-store
// workloads send, which is where the perf gate judges them. It lives
// here rather than in the root registry file because the service
// package imports cres; registering from cres would close an import
// cycle.

// svcRounds returns how many times the script repeats each request.
func svcRounds(quick bool) int {
	if quick {
		return 8
	}
	return 32
}

// svcScript is the deterministic request mix: cheap control-plane
// probes, one registry experiment, two single-fleet appraisals and a
// small sweep.
func svcScript(seed int64) []string {
	return []string{
		"/healthz",
		"/experiments",
		fmt.Sprintf("/run?experiment=E2&seed=%d", seed),
		fmt.Sprintf("/appraise?size=256&seed=%d", seed),
		fmt.Sprintf("/appraise?size=1024&seed=%d", seed),
		fmt.Sprintf("/fleet?sizes=4,64,512&seed=%d", seed),
	}
}

// SVCEndpoint is one scripted request's aggregate outcome.
type SVCEndpoint struct {
	// Path is the request path with query.
	Path string
	// Requests is how many times the script hit the path.
	Requests int
	// Bytes is one response body's length (every repeat is verified
	// byte-identical, so one length describes them all).
	Bytes int
	// BodySHA is the first 12 hex digits of the body's SHA-256 — the
	// deterministic fingerprint two runs (or two commits) can compare.
	BodySHA string
	// NsPerReq is host-clock nanoseconds per request, round-trip
	// through the loopback listener.
	NsPerReq float64
}

// SVCResult is the service benchmark outcome.
type SVCResult struct {
	Endpoints []SVCEndpoint
	// Requests is the script's total request count and Wall the host
	// time the whole script took.
	Requests int
	Wall     time.Duration
	Table    *report.Table
}

// RequestsPerSec is the script's aggregate host-clock throughput.
func (r *SVCResult) RequestsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Wall.Seconds()
}

// Metrics reports the script's aggregate requests/sec and each
// endpoint's ns/req. They are information: bench/'s svc-cold and
// svc-store workloads send the same requests and gate their cost
// against the parent commit.
func (r *SVCResult) Metrics() []harness.Metric {
	ms := []harness.Metric{{Name: "SVC/requests_per_sec", Unit: "1/s", Value: r.RequestsPerSec(), Better: harness.Higher}}
	for _, ep := range r.Endpoints {
		ms = append(ms, harness.Metric{Name: "SVC" + ep.Path + "/ns_per_req", Unit: "ns", Value: ep.NsPerReq, Better: harness.Lower})
	}
	return ms
}

// RenderStable renders the table with host-clock cells masked, for
// the determinism gate's byte-compare.
func (r *SVCResult) RenderStable() string { return r.render(true).Render() }

// render builds the outcome table.
func (r *SVCResult) render(stable bool) *report.Table {
	t := report.NewTable("SVC — resident service bench (loopback cresd; every repeat response verified byte-identical)",
		"Endpoint", "Requests", "Body bytes", "Body sha", "ns/req")
	for _, ep := range r.Endpoints {
		ns := "-"
		if !stable {
			ns = report.F(ep.NsPerReq)
		}
		t.AddRow(ep.Path, report.I(ep.Requests), report.I(ep.Bytes), ep.BodySHA, ns)
	}
	total := "-"
	if !stable {
		total = report.F(r.RequestsPerSec()) + " req/s"
	}
	t.AddRow("TOTAL", report.I(r.Requests), "-", "-", total)
	return t
}

// RunServiceBench starts a resident server on a loopback listener,
// replays the deterministic request script svcRounds times per path,
// verifies every repeat body byte-identical to the first, then drains
// the server through /quit. The pool bounds the server's per-request
// parallelism — response bytes never depend on it.
func RunServiceBench(seed int64, quick bool, pool *harness.Pool) (*SVCResult, error) {
	workers := 0
	if pool != nil {
		workers = pool.Workers()
	}
	srv, err := New(Config{Parallel: workers, Quick: quick, DefaultSeed: seed})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service bench: %w", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: time.Minute}

	get := func(path string) ([]byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return body, nil
	}

	res := &SVCResult{}
	rounds := svcRounds(quick)
	start := time.Now()
	for _, path := range svcScript(seed) {
		first, err := get(path)
		if err != nil {
			return nil, err
		}
		epStart := time.Now()
		for i := 1; i < rounds; i++ {
			body, err := get(path)
			if err != nil {
				return nil, err
			}
			if string(body) != string(first) {
				return nil, fmt.Errorf("service bench: GET %s round %d: response differs from round 0 — repeat-identity contract broken", path, i)
			}
		}
		elapsed := time.Since(epStart)
		sum := sha256.Sum256(first)
		ep := SVCEndpoint{
			Path:     path,
			Requests: rounds,
			Bytes:    len(first),
			BodySHA:  hex.EncodeToString(sum[:])[:12],
		}
		if rounds > 1 {
			ep.NsPerReq = float64(elapsed.Nanoseconds()) / float64(rounds-1)
		}
		res.Endpoints = append(res.Endpoints, ep)
		res.Requests += rounds
	}
	res.Wall = time.Since(start)

	// Drain through the public endpoint so the bench exercises the
	// same shutdown path operators use.
	resp, err := client.Post(base+"/quit", "application/json", nil)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := <-serveDone; err != nil {
		return nil, fmt.Errorf("service bench: serve: %w", err)
	}

	res.Table = res.render(false)
	return res, nil
}

func init() {
	harness.Register("SVC", func(ctx *harness.Context) (*harness.Outcome, error) {
		start := time.Now()
		res, err := RunServiceBench(ctx.Seed, ctx.Quick, ctx.Pool)
		if err != nil {
			return nil, err
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		blocks := []string{res.Table.Render()}
		if ctx.Stable {
			// Host-clock cells would defeat the determinism gate's
			// byte-compare; mask them.
			blocks = []string{res.RenderStable()}
		}
		return &harness.Outcome{Blocks: blocks, Metrics: res.Metrics(), NsPerOp: elapsed}, nil
	})
}
