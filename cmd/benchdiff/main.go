// Command benchdiff gates a cresd result store against its own
// trajectory: within every stored key's history the bodies must be
// byte-identical (the determinism invariant — a drift is a
// correctness failure, whatever the host), and the latest compute cost
// must not exceed the best prior run by more than 50%. CI's service
// gate runs it on the store its cresd replays produce.
//
// Usage:
//
//	benchdiff -store results
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cres/internal/store"
)

// maxStoreRegress is how far a stored key's latest ns/op may exceed its
// best prior run.
const maxStoreRegress = 0.5

func main() {
	storeDir := flag.String("store", "", "the cresd result store to gate against its own trajectory")
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -store is required")
		os.Exit(2)
	}
	if err := runStore(*storeDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// runStore gates a cresd result store against its own trajectory. Two
// checks per stored key: every record in the key's history must carry
// byte-identical bodies — identical (experiment, seed, config digest)
// must mean identical results, on any host, or the simulator's
// determinism contract is broken — and the latest recorded compute
// cost must not exceed the best prior run's by more than
// maxStoreRegress.
// Keys with a single record have no trajectory yet and are noted, not
// failed.
func runStore(dir string, out io.Writer) error {
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		return fmt.Errorf("-store: %w", err)
	}

	problems, lines := compareStore(st)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d store regression(s):\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	fmt.Fprintln(out, "benchdiff: store trajectory clean")
	return nil
}

// compareStore runs the -store mode's checks over an open store.
func compareStore(st *store.Store) (problems, lines []string) {
	keys := st.Keys()
	lines = append(lines, fmt.Sprintf("Store trajectory (%d records, %d keys; ns/op limit +%.0f%% over best prior run):",
		st.Len(), len(keys), maxStoreRegress*100))
	for _, k := range keys {
		hist := st.History(k)
		for i := 1; i < len(hist); i++ {
			if hist[i].Body != hist[0].Body {
				problems = append(problems, fmt.Sprintf("%s: run %d body differs from run 0 — determinism broken", k, i))
			}
		}
		if len(hist) < 2 {
			lines = append(lines, fmt.Sprintf("  %-48s %27s", k, "single run, no trajectory"))
			continue
		}
		best := 0.0
		for _, r := range hist[:len(hist)-1] {
			if r.NsPerOp > 0 && (best == 0 || r.NsPerOp < best) {
				best = r.NsPerOp
			}
		}
		last := hist[len(hist)-1].NsPerOp
		if best <= 0 || last <= 0 {
			lines = append(lines, fmt.Sprintf("  %-48s %27s", k, "no ns/op recorded, skipped"))
			continue
		}
		delta := last/best - 1
		status := "ok"
		if delta > maxStoreRegress {
			status = "REGRESSION"
			problems = append(problems, fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%, limit +%.0f%%)",
				k, best, last, delta*100, maxStoreRegress*100))
		}
		lines = append(lines, fmt.Sprintf("  %-48s %10.0f -> %10.0f  (%+6.1f%%)  %s", k, best, last, delta*100, status))
	}
	return problems, lines
}
