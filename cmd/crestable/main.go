// Command crestable regenerates the paper's two exhibits from the
// machine-readable landscape model: Table I (the requirement/landscape
// mapping with the derived respond/recover gap) and Figure 1 (the core
// security functions, principles and activities of NIST RMF, NIST CSF
// and NCSC NIS).
//
// With -store it instead renders the resident service's result store
// (see cmd/cresd): one row per stored (experiment, seed, config
// digest) key with its run count, body size and latest compute cost —
// the operator's view of what the store already holds.
//
// Usage:
//
//	crestable [-csv]
//	crestable -store results [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"cres"
	"cres/internal/report"
	"cres/internal/store"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	storeDir := flag.String("store", "", "render this result store directory instead of the paper exhibits")
	flag.Parse()
	if err := run(*csv, *storeDir); err != nil {
		fmt.Fprintln(os.Stderr, "crestable:", err)
		os.Exit(1)
	}
}

func run(csv bool, storeDir string) error {
	if storeDir != "" {
		return runStore(csv, storeDir)
	}
	e2 := cres.RunE2Figure1()
	fmt.Println(e2.Rendered)
	e1 := cres.RunE1TableI()
	if csv {
		fmt.Println(e1.Table.CSV())
		fmt.Println(e1.CoverageTable.CSV())
		fmt.Println(e2.Association.CSV())
		return nil
	}
	fmt.Println(e1.Table.Render())
	fmt.Println(e1.CoverageTable.Render())
	fmt.Println(e2.Association.Render())
	fmt.Printf("Derived research gaps (requirements with no existing method): %v\n", e1.Gaps)
	return nil
}

// runStore renders the result store as one table: a row per stored
// key, in first-appearance order. The store opens read-only, so a
// viewer beside a live cresd changes nothing on disk, and a missing
// store file is an error naming its path.
func runStore(csv bool, dir string) error {
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		return fmt.Errorf("-store: %w", err)
	}

	t := storeTable(st)
	if csv {
		fmt.Println(t.CSV())
		return nil
	}
	fmt.Println(t.Render())
	return nil
}

// storeTable builds the store summary table: experiment, seed and
// digest identify the cell; runs counts its history; body bytes and
// the latest ns/op describe the stored result.
func storeTable(st *store.Store) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Result store %s — %d records, %d keys", filepath.Clean(st.Dir()), st.Len(), len(st.Keys())),
		"Experiment", "Seed", "Config digest", "Runs", "Body bytes", "Last ns/op")
	for _, k := range st.Keys() {
		hist := st.History(k)
		last := hist[len(hist)-1]
		ns := "-"
		if last.NsPerOp > 0 {
			ns = report.F(last.NsPerOp)
		}
		t.AddRow(k.Experiment, strconv.FormatInt(k.Seed, 10), k.Digest,
			report.I(len(hist)), report.I(len(last.Body)), ns)
	}
	return t
}
