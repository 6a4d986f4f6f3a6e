package service

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"cres/internal/store"
)

// liveServer starts a real Serve loop on 127.0.0.1:0 and returns the
// base URL plus the channel Serve's return lands on.
func liveServer(t *testing.T, dir string) (*Server, string, chan error) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := New(Config{Store: st, Quick: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return srv, "http://" + l.Addr().String(), done
}

// httpGet is the plain-client fetch for live-listener tests.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServeQuitDrainsInFlightAndRestartResumes is the end-to-end
// shutdown/resume integration: a real listener serves part of a
// sweep, a slow request is mid-flight when /quit lands, the drain
// lets it finish, Serve returns cleanly, and a second server over the
// same store resumes the sweep — serving the stored cells and
// computing only the missing one.
func TestServeQuitDrainsInFlightAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	srv1, base1, done1 := liveServer(t, dir)

	// Half the sweep: two of the three cells, stored.
	code, cell4 := httpGet(t, base1+"/appraise?size=4&seed=7")
	if code != http.StatusOK {
		t.Fatalf("appraise 4: %d", code)
	}
	code, cell64 := httpGet(t, base1+"/appraise?size=64&seed=7")
	if code != http.StatusOK {
		t.Fatalf("appraise 64: %d", code)
	}

	// A slow request in flight while /quit lands: the drain must let
	// it complete with a full 200 body, not sever it.
	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base1 + "/appraise?size=16384&seed=7&nocache=1")
		if err != nil {
			slowDone <- err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			slowDone <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			slowDone <- fmt.Errorf("slow request: status %d: %s", resp.StatusCode, body)
			return
		}
		slowDone <- nil
	}()
	time.Sleep(20 * time.Millisecond) // let the slow request reach the handler

	resp, err := http.Post(base1+"/quit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /quit: %d", resp.StatusCode)
	}

	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after /quit")
	}
	if !srv1.Draining() {
		t.Fatal("server not marked draining")
	}

	// Restart over the same store: the full sweep resumes — the two
	// stored cells are served byte-identically without recomputation,
	// only size 512 is computed.
	// The first life ends; its process exit would release the store.
	if err := srv1.cfg.Store.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, base2, done2 := liveServer(t, dir)
	resp, err = http.Get(base2 + "/fleet?sizes=4,64,512&seed=7")
	if err != nil {
		t.Fatal(err)
	}
	sweep, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed sweep: %d: %s", resp.StatusCode, sweep)
	}
	if got := resp.Header.Get("X-Cres-Cache"); got != "hit=2;miss=1" {
		t.Fatalf("resumed sweep X-Cres-Cache = %q, want hit=2;miss=1", got)
	}
	if !bytes.Contains(sweep, bytes.TrimSuffix(cell4, []byte("\n"))) ||
		!bytes.Contains(sweep, bytes.TrimSuffix(cell64, []byte("\n"))) {
		t.Fatal("resumed sweep does not embed the first server's stored cell bytes")
	}
	if srv2.Stats().Computed != 1 {
		t.Fatalf("restarted server computed %d cells, want 1", srv2.Stats().Computed)
	}

	if err := srv2.Shutdown(t.Context()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("Serve returned %v after Shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}
