package attest

import (
	"fmt"
	"sort"

	"cres/internal/cryptoutil"
	"cres/internal/tpm"
)

// This file is the batch-friendly appraisal entry point. A fleet
// verifier appraising devices at line rate sees the same boot state —
// event log, PCR selection, quoted values — over and over: every
// healthy device of a firmware share boots identically, and so does
// every implanted one. CompileAppraisal evaluates everything that
// depends only on that boot state ONCE (log replay, required-PCR
// presence, the measurement allowlist, the canonical quote-body
// encoding), leaving just the per-quote work — nonce splice, signature,
// verification — on the hot path. The verdict and the signed bytes are
// identical to the unbatched Policy.AppraiseKey / tpm.GenerateQuote
// path; only the place the work is done moves.

// CompiledAppraisal is one fixed boot state's precompiled policy
// appraisal. It is immutable and safe to share across goroutines; the
// mutable per-worker state (the nonce-spliced body buffer) lives in the
// BatchAppraiser each worker obtains from Batch.
type CompiledAppraisal struct {
	body     []byte // canonical quote body with a zero nonce at the hole
	nonceLen int
	verdict  error // the non-signature policy outcome for this boot state
}

// CompileAppraisal precompiles the policy checks for one fixed event
// log and PCR selection, for quotes carrying nonceLen-byte nonces. The
// returned appraisal answers for any device whose boot produced exactly
// this log: its quoted values are the log's replay, so the replay-match
// check holds by construction, and the required-PCR and allowlist
// verdicts are functions of the log alone. A malformed log or selection
// is a compile error, not a verdict.
func (p *Policy) CompileAppraisal(log []tpm.LogEntry, selection []int, nonceLen int) (*CompiledAppraisal, error) {
	if nonceLen <= 0 {
		return nil, fmt.Errorf("attest: compile: nonce length %d, want > 0", nonceLen)
	}
	if len(selection) == 0 {
		selection = PCRSelection
	}
	sel := append([]int(nil), selection...)
	sort.Ints(sel)
	sel = dedupSorted(sel)

	replayed, err := tpm.ReplayLog(log)
	if err != nil {
		return nil, fmt.Errorf("attest: compile: %w", err)
	}
	values := make([]cryptoutil.Digest, len(sel))
	for i, pcr := range sel {
		if pcr < 0 || pcr >= tpm.NumPCRs {
			return nil, fmt.Errorf("attest: compile: selection pcr %d out of range", pcr)
		}
		values[i] = replayed[pcr]
	}

	// The non-signature policy verdict, in AppraiseKey's check order:
	// required-PCR presence first, then the measurement allowlist. (The
	// replay-match check cannot fail here: the quoted values ARE the
	// replay.)
	var verdict error
	for _, pcr := range PCRSelection {
		if !containsInt(sel, pcr) {
			verdict = fmt.Errorf("%w: quote missing required PCR %d", ErrPolicy, pcr)
			break
		}
	}
	if verdict == nil {
		for _, entry := range log {
			if !p.AllowedMeasurements[entry.Measurement] {
				verdict = fmt.Errorf("%w: unknown measurement %s (%s) in PCR %d", ErrPolicy, entry.Measurement.Short(), entry.Desc, entry.PCR)
				break
			}
		}
	}

	body := tpm.AppendQuoteBody(nil, make([]byte, nonceLen), sel, values)
	return &CompiledAppraisal{body: body, nonceLen: nonceLen, verdict: verdict}, nil
}

// Batch returns a private working copy of the compiled appraisal for
// one worker. BatchAppraisers are cheap (one body-sized buffer) and not
// safe for concurrent use; a shard's scratch holds one per boot state.
func (c *CompiledAppraisal) Batch() *BatchAppraiser {
	return &BatchAppraiser{c: c, body: append([]byte(nil), c.body...)}
}

// BatchAppraiser is the per-worker hot-path handle on a
// CompiledAppraisal: it owns a private quote-body buffer that fresh
// nonces are spliced into, so signing and verifying a device costs two
// curve operations and zero re-encoding.
type BatchAppraiser struct {
	c    *CompiledAppraisal
	body []byte
}

// spliceNonce writes nonce into the body's nonce hole.
func (b *BatchAppraiser) spliceNonce(nonce []byte) error {
	if len(nonce) != b.c.nonceLen {
		return fmt.Errorf("attest: batch: nonce length %d, compiled for %d", len(nonce), b.c.nonceLen)
	}
	copy(b.body[tpm.QuoteBodyNonceOffset:], nonce)
	return nil
}

// SignFast signs the nonce-spliced quote body through the
// variable-time signer: the signature tpm.GenerateQuote would put on
// the equivalent full Quote, plus the R hint that lets the verifier's
// batch path skip decompression, for callers signing one quote at a
// time (the fleet signs a whole epoch through AppendBody and
// VartimeSigner.SignBatch).
func (b *BatchAppraiser) SignFast(signer *cryptoutil.VartimeSigner, nonce []byte) (sig [64]byte, hint cryptoutil.RHint, err error) {
	if err := b.spliceNonce(nonce); err != nil {
		return sig, hint, err
	}
	sig, hint = signer.Sign(b.body)
	return sig, hint, nil
}

// AppendBody splices nonce into the canonical quote body and appends
// the body to dst: the bytes SignFast signs, for a caller that signs a
// whole provisioning epoch in one VartimeSigner.SignBatch call.
func (b *BatchAppraiser) AppendBody(dst, nonce []byte) ([]byte, error) {
	if err := b.spliceNonce(nonce); err != nil {
		return dst, err
	}
	return append(dst, b.body...), nil
}

// Enqueue hands one quote to the batched verifier: it splices the nonce
// and adds the signature to bv, which copies the body before the next
// splice overwrites it. The verdict arrives later, via Resolve, once
// the caller flushes bv.
func (b *BatchAppraiser) Enqueue(bv *cryptoutil.BatchVerifier, aik cryptoutil.PublicKey, nonce, sig []byte, hint *cryptoutil.RHint) error {
	if err := b.spliceNonce(nonce); err != nil {
		return err
	}
	if hint != nil {
		bv.AddHinted(aik, b.body, sig, hint)
	} else {
		bv.Add(aik, b.body, sig)
	}
	return nil
}

// Resolve maps one flushed BatchVerifier verdict back to the appraisal
// outcome, completing an Enqueue. The result is exactly
// Policy.AppraiseKey's on the equivalent full Quote: a failed signature
// yields ErrPolicy wrapping tpm.ErrQuoteInvalid, a good one the
// compiled policy verdict.
func (b *BatchAppraiser) Resolve(sigOK bool) error {
	if !sigOK {
		return fmt.Errorf("%w: %w", ErrPolicy, tpm.ErrQuoteInvalid)
	}
	return b.c.verdict
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// containsInt reports whether sorted slice s contains v.
func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
