package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cres/internal/store"
)

// TestBuildRejectsUnknownExperiment pins the strict-flag contract: a
// typo in -experiment is a usage error naming every registered
// experiment, raised before any server exists.
func TestBuildRejectsUnknownExperiment(t *testing.T) {
	_, _, err := build(options{experiments: "E2,NOPE"})
	if err == nil {
		t.Fatal("-experiment NOPE accepted")
	}
	if !strings.Contains(err.Error(), "NOPE") || !strings.Contains(err.Error(), "E2") {
		t.Fatalf("error %q should name the bad value and the registry", err)
	}
	if _, _, err := build(options{experiments: " , "}); err == nil {
		t.Fatal("empty -experiment list accepted")
	}
	srv, st, err := build(options{experiments: "E2"})
	if err != nil {
		t.Fatalf("valid allowlist rejected: %v", err)
	}
	if st != nil {
		t.Fatal("store opened without -store")
	}
	_ = srv
}

// TestBuildRejectsNegativeParallel pins that -parallel below zero is a
// usage error naming the flag, while 0 keeps meaning GOMAXPROCS.
func TestBuildRejectsNegativeParallel(t *testing.T) {
	for _, tc := range []struct {
		parallel int
		ok       bool
	}{{-5, false}, {-1, false}, {0, true}, {2, true}} {
		_, _, err := build(options{parallel: tc.parallel})
		if tc.ok && err != nil {
			t.Errorf("-parallel %d rejected: %v", tc.parallel, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "-parallel")) {
			t.Errorf("-parallel %d: error %v, want a usage error naming -parallel", tc.parallel, err)
		}
	}
}

// TestBuildRejectsUnusableStore pins that a -store path that cannot
// hold a store (here: an existing regular file) fails before serving.
func TestBuildRejectsUnusableStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := build(options{storeDir: path}); err == nil {
		t.Fatal("-store pointing at a file accepted")
	}
}

// TestBuildRejectsLockedStore pins that a second cresd on a store a
// live one holds exits at start-up, naming the flag and the store,
// instead of writing over the first one's records.
func TestBuildRejectsLockedStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	held, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	_, st, err := build(options{storeDir: dir})
	if err == nil {
		st.Close()
		t.Fatal("a second writer opened a held store")
	}
	if !strings.Contains(err.Error(), "-store") || !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q should name -store and %s", err, dir)
	}
}

// TestRunRejectsBadListen pins that a malformed -listen address is a
// startup error, not a silently dead server.
func TestRunRejectsBadListen(t *testing.T) {
	err := run(options{listen: "definitely:not:an:address"}, io.Discard, nil, nil)
	if err == nil {
		t.Fatal("bad -listen accepted")
	}
	if !strings.Contains(err.Error(), "-listen") {
		t.Fatalf("error %q should name the flag", err)
	}
}

// TestRunServesDrainsAndResumes drives the binary's whole life twice:
// serve on :0, answer requests, drain on SIGINT delivery (first life)
// and on POST /quit (second life), and answer the repeated request
// from the store after the restart — byte-identical.
func TestRunServesDrainsAndResumes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	o := options{listen: "127.0.0.1:0", storeDir: dir, parallel: 2, quick: true, seed: 7}

	get := func(base, path string) (string, http.Header) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header
	}

	// First life: compute a cell, then drain via the signal channel.
	sig := make(chan os.Signal, 1)
	started := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	var out1 bytes.Buffer
	go func() { errCh <- run(o, &out1, sig, started) }()
	addr := <-started
	base := "http://" + addr.String()
	first, hdr := get(base, "/appraise?size=64&seed=3")
	if hdr.Get("X-Cres-Cache") != "miss" {
		t.Fatalf("first appraisal cache = %q, want miss", hdr.Get("X-Cres-Cache"))
	}
	sig <- os.Interrupt
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("first life exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("signal did not drain the server")
	}
	if !strings.Contains(out1.String(), "listening on http://") || !strings.Contains(out1.String(), "drained") {
		t.Fatalf("first life output missing lifecycle lines:\n%s", out1.String())
	}

	// Second life on the same store: the repeat is a byte-identical
	// cache hit, and POST /quit drains.
	go func() { errCh <- run(o, io.Discard, nil, started) }()
	addr = <-started
	base = "http://" + addr.String()
	again, hdr := get(base, "/appraise?size=64&seed=3")
	if hdr.Get("X-Cres-Cache") != "hit" {
		t.Fatalf("restarted appraisal cache = %q, want hit", hdr.Get("X-Cres-Cache"))
	}
	if again != first {
		t.Fatalf("restart changed the response bytes:\n%q\nvs\n%q", first, again)
	}
	resp, err := http.Post(base+"/quit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("second life exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("/quit did not drain the server")
	}

	// The store on disk holds exactly the one computed cell.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1 {
		t.Fatalf("store has %d records, want the 1 computed cell", st.Len())
	}
}
