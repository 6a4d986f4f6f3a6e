// Command cresd is the resident attestation service: it answers
// appraisal, sweep, campaign and topology requests over local
// HTTP+JSON — the interactive front end to the same engines and the
// same experiment registry the batch tools run.
//
// Responses are deterministic: identical requests return
// byte-identical bodies, whatever the -parallel setting, however often
// repeated, and across restarts. With -store, every computed cell is
// appended to a JSONL result store keyed (experiment, seed, config
// digest) and repeat requests — including /fleet sweep cells after an
// interrupted sweep — are answered from it without recomputation.
// GET /results lists the stored history.
//
// SIGINT/SIGTERM, or a POST /quit, drains gracefully: new requests are
// refused with 503, in-flight requests run to completion, and the
// store is flushed before exit.
//
// Every flag is validated before the listener opens: an unknown
// -experiment name, an unusable -store directory or a bad -listen
// address is a usage error naming the valid values, never a server
// that starts and then misbehaves.
//
// Usage:
//
//	cresd [-listen 127.0.0.1:8377] [-store results] [-experiment E2,E8] [-parallel N] [-quick] [-seed 7]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cres/internal/service"
	"cres/internal/store"
)

// options collects the CLI flags.
type options struct {
	listen      string
	storeDir    string
	experiments string
	parallel    int
	quick       bool
	seed        int64
}

// shutdownTimeout bounds how long a signal-triggered drain waits for
// in-flight requests before the process gives up and exits.
const shutdownTimeout = 30 * time.Second

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:8377", "TCP address to serve on")
	flag.StringVar(&o.storeDir, "store", "results", "result store directory (empty disables persistence)")
	flag.StringVar(&o.experiments, "experiment", "", "comma-separated /run experiment allowlist (empty: every registered experiment)")
	flag.IntVar(&o.parallel, "parallel", 0, "per-request worker pool size (0 = GOMAXPROCS), split over a fleet's shards and then inside each; never changes response bytes")
	flag.BoolVar(&o.quick, "quick", false, "reduced sweeps for /run requests that do not choose")
	flag.Int64Var(&o.seed, "seed", service.DefaultSeed, "default root seed for requests that omit seed")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(o, os.Stdout, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cresd:", err)
		os.Exit(1)
	}
}

// build validates the flags and assembles the server and its store.
// Every usage error — a negative -parallel, an unknown -experiment
// name, an unusable -store path — surfaces here, before any listener
// opens. The caller owns
// closing the returned store.
func build(o options) (*service.Server, *store.Store, error) {
	if o.parallel < 0 {
		return nil, nil, fmt.Errorf("-parallel %d, want >= 0 (0 = GOMAXPROCS)", o.parallel)
	}
	var st *store.Store
	if o.storeDir != "" {
		var err error
		if st, err = store.Open(o.storeDir); err != nil {
			return nil, nil, fmt.Errorf("-store: %w", err)
		}
	}
	cfg := service.Config{
		Store:       st,
		Parallel:    o.parallel,
		Quick:       o.quick,
		DefaultSeed: o.seed,
	}
	if o.experiments != "" {
		cfg.Experiments = splitList(o.experiments)
		if len(cfg.Experiments) == 0 {
			if st != nil {
				st.Close()
			}
			return nil, nil, fmt.Errorf("-experiment value %q names no experiments", o.experiments)
		}
	}
	srv, err := service.New(cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		// service.New's unknown-experiment error already names every
		// registered experiment.
		return nil, nil, fmt.Errorf("-experiment: %w", err)
	}
	return srv, st, nil
}

// run builds the server, opens the listener, and serves until a signal
// on sig or a /quit request drains it. The bound address is sent on
// started (when non-nil) once the listener is open — the hook tests
// use to reach a :0 listener.
func run(o options, out io.Writer, sig <-chan os.Signal, started chan<- net.Addr) error {
	srv, st, err := build(o)
	if err != nil {
		return err
	}
	if st != nil {
		defer st.Close()
	}
	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	storeNote := "persistence disabled"
	if st != nil {
		storeNote = fmt.Sprintf("store %s (%d records)", filepath.Clean(st.Dir()), st.Len())
	}
	fmt.Fprintf(out, "cresd: listening on http://%s — %s\n", l.Addr(), storeNote)
	if started != nil {
		started <- l.Addr()
	}
	go func() {
		if _, ok := <-sig; !ok {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	if err := srv.Serve(l); err != nil {
		return err
	}
	stats := srv.Stats()
	fmt.Fprintf(out, "cresd: drained after %d requests (%d computed, %d cache hits, %d errors)\n",
		stats.Requests, stats.Computed, stats.CacheHits, stats.Errors)
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, field := range strings.Split(s, ",") {
		if field = strings.TrimSpace(field); field != "" {
			out = append(out, field)
		}
	}
	return out
}
