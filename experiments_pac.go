package cres

import (
	"errors"

	"cres/internal/harness"
	"cres/internal/ptrauth"
	"cres/internal/report"
	"cres/internal/sim"
)

// This file implements experiment E11: the pointer-authentication
// countermeasure Section IV discusses ("a pointer authentication
// mechanism has been introduced... guarantees the integrity of pointers
// by extending each pointer with authentication code"). A ROP attacker
// overwrites stored return addresses; a plain return stack executes the
// gadget silently, while the PAC-protected stack traps on almost every
// corruption (forgery succeeds only by guessing the PAC).

// E11Row is one stack configuration's outcome.
type E11Row struct {
	Config string
	// Corruptions is the number of injected return-address overwrites.
	Corruptions int
	// Caught is how many were detected (authentication trap).
	Caught int
	// GadgetRuns is how many times the attacker's gadget address was
	// returned to (successful hijack).
	GadgetRuns int
}

// E11Result is the pointer-authentication experiment.
type E11Result struct {
	Rows  []E11Row
	Table *report.Table
}

// plainStack is the unprotected baseline: raw return addresses.
type plainStack struct {
	entries []uint64
}

func (s *plainStack) push(a uint64)           { s.entries = append(s.entries, a) }
func (s *plainStack) corrupt(i int, v uint64) { s.entries[i] = v }
func (s *plainStack) pop() uint64 {
	a := s.entries[len(s.entries)-1]
	s.entries = s.entries[:len(s.entries)-1]
	return a
}

// RunE11PointerAuth runs `trials` call/corrupt/return rounds against a
// plain return stack and a PAC-protected one. The two configurations
// run on independent shards with their own derived RNG streams.
func RunE11PointerAuth(seed int64, trials int, pool *harness.Pool) (*E11Result, error) {
	if trials <= 0 {
		trials = 500
	}
	const gadget = 0x6666_0000

	rows, err := harness.Map(pool, 2, seed, func(sh harness.Shard) (E11Row, error) {
		rng := sim.New(sh.Seed).RNG()
		if sh.Index == 0 {
			// Plain stack: every corruption becomes a silent gadget
			// execution.
			row := E11Row{Config: "plain return stack", Corruptions: trials}
			for i := 0; i < trials; i++ {
				var st plainStack
				depth := rng.Intn(6) + 1
				for d := 0; d < depth; d++ {
					st.push(0x2000_0000 + uint64(rng.Intn(1<<16)))
				}
				st.corrupt(rng.Intn(depth), gadget)
				for d := 0; d < depth; d++ {
					if st.pop() == gadget {
						row.GadgetRuns++
					}
				}
			}
			return row, nil
		}

		// PAC-protected stack: corruption trips authentication.
		row := E11Row{Config: "PAC-protected return stack", Corruptions: trials}
		key := ptrauth.NewKey([]byte("device-root"), "ia")
		for i := 0; i < trials; i++ {
			st := ptrauth.NewReturnStack(key)
			depth := rng.Intn(6) + 1
			for d := 0; d < depth; d++ {
				if err := st.Push(0x2000_0000 + uint64(rng.Intn(1<<16))); err != nil {
					return E11Row{}, err
				}
			}
			// The attacker overwrites a stored (signed) entry with the
			// raw gadget address — they do not hold the PAC key, so the
			// best they can do is guess the PAC bits.
			st.Corrupt(rng.Intn(depth), gadget|uint64(rng.Intn(1<<16))<<48)
			caught := false
			for d := 0; d < depth; d++ {
				addr, err := st.Pop()
				if err != nil {
					if !errors.Is(err, ptrauth.ErrAuthFailed) {
						return E11Row{}, err
					}
					caught = true
					break // the trap halts execution
				}
				if addr&0xffff_ffff == gadget {
					row.GadgetRuns++
				}
			}
			if caught {
				row.Caught++
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &E11Result{Rows: rows}

	t := report.NewTable("E11 — Return-address corruption: plain vs PAC-protected stack",
		"Configuration", "Corruptions", "Caught", "Gadget executions")
	for _, r := range res.Rows {
		t.AddRow(r.Config, report.I(r.Corruptions), report.I(r.Caught), report.I(r.GadgetRuns))
	}
	res.Table = t
	return res, nil
}
