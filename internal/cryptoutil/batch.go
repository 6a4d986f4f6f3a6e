package cryptoutil

import (
	"crypto/ed25519"
	"crypto/sha512"
	"io"
	"slices"

	"cres/internal/edwards25519"
)

// This file is the batch half of the fleet verifier's crypto: instead
// of one double-scalar multiplication per signature, a BatchVerifier
// accumulates a whole appraisal batch and checks the single random
// linear combination
//
//	[sum z_i*s_i]B - sum [z_i]R_i - sum_j [sum z_i*h_i]A_j == identity
//
// with one multi-scalar multiplication, where the z_i are 128-bit
// coefficients drawn from a caller-supplied deterministic stream. A
// flush of k signatures under g public keys (the fleet case: one AIK
// per provisioning epoch, several epochs per flush) costs one
// fixed-base multiply, g variable-base multiplies, and a k-point
// Pippenger sum whose cost per point falls as k grows. On a shared
// 2-vCPU Xeon (medians of 6 interleaved runs of
// BenchmarkBatchVerifyHinted) that came to 9.0 µs per signature for a
// one-epoch, 256-signature flush and 6.4 µs for a 16-epoch,
// 4096-signature flush, against about 79 µs for crypto/ed25519.Verify
// on the same host.
//
// Verdict parity with the unbatched path is structural, not hoped-for:
// any input crypto/ed25519 would reject at parse time (bad lengths,
// non-canonical s, undecodable R or A) never enters the combination —
// it is routed to an individual ed25519.Verify call. If the combined
// equation fails, Flush bisects the batch, re-deriving sub-sums from
// the recorded per-entry scalars, and resolves each failing singleton
// with ed25519.Verify, so every verdict a caller observes is either
// "batch equation held" (all stdlib-valid with failure probability
// <= 2^-125) or the stdlib verdict itself. Coefficients are forced odd
// so a single small-order (torsion) defect anywhere in a flush cannot
// hide in the cofactor; see doc.go for the residual multi-torsion
// caveat this shares with batch verification in general.

// batchGroup is the per-distinct-pubkey state of a batch: the decoded,
// negated public key point and the original key bytes, kept verbatim
// (whatever their length) so the fallback path sees exactly what the
// unbatched path would have.
type batchGroup struct {
	pub      []byte
	negA     edwards25519.Point
	pubValid bool
}

// batchEntry records one Add: the coefficient z, the signature scalar
// s, the challenge scalar h, which pubkey group it belongs to, and
// where its message copy lives in the pooled buffer. Entries that fail
// admission keep z = 0 so they vanish from the combined equation and
// are resolved individually.
type batchEntry struct {
	s, h     edwards25519.Scalar
	group    int
	fallback bool
	msgOff   int
	msgLen   int
	sigLen   int
	sig      [ed25519.SignatureSize]byte
}

// BatchVerifier accumulates signatures and verifies them together on
// Flush. Not safe for concurrent use; the fleet keeps one per worker
// scratch. The zero value is not usable — construct with
// NewBatchVerifier.
type BatchVerifier struct {
	coeff io.Reader

	entries []batchEntry
	zs      []edwards25519.Scalar       // parallel to entries, for MSM slicing
	negRs   []edwards25519.AffineCached // parallel to entries
	groups  []batchGroup
	msgBuf  []byte
	hashBuf []byte
	results []bool
	msm     edwards25519.MSMScratch
	runner  edwards25519.Runner
	coeffs  []edwards25519.Scalar // per-group sums, pooled for combinedHolds
	touched []bool
	// The touched groups' sums and negated keys, the variable-base
	// terms of one combined check.
	termCoeffs []edwards25519.Scalar
	termPoints []edwards25519.Point
	zBuf       [16]byte
}

// NewBatchVerifier returns a verifier drawing its linear-combination
// coefficients from coeff. Pass a seeded DeterministicEntropy stream
// to make verdicts (and therefore any downstream goldens) reproducible
// run to run; the stream is consumed one 16-byte draw per Add, in Add
// order.
func NewBatchVerifier(coeff io.Reader) *BatchVerifier {
	return &BatchVerifier{coeff: coeff}
}

// SetRunner makes later flushes split each combined check's curve
// work into tasks on r (see edwards25519.MultiScalarMultVartime); nil,
// the default, runs them on the caller. Verdicts are the same either
// way.
func (b *BatchVerifier) SetRunner(r edwards25519.Runner) { b.runner = r }

// Reset drops any accumulated state and replaces the coefficient
// stream, keeping pooled storage. A caller that wants new coefficients
// but keeps its pending entries re-keys the stream itself instead, as
// the fleet does at each provisioning epoch of a multi-epoch flush.
func (b *BatchVerifier) Reset(coeff io.Reader) {
	b.coeff = coeff
	b.entries = b.entries[:0]
	b.zs = b.zs[:0]
	b.negRs = b.negRs[:0]
	b.groups = b.groups[:0]
	b.msgBuf = b.msgBuf[:0]
}

// Grow makes room for n more Adds carrying msgBytes of messages in
// total, so a caller that knows its flush size allocates the storage
// once instead of growing it Add by Add.
func (b *BatchVerifier) Grow(n, msgBytes int) {
	b.entries = slices.Grow(b.entries, n)
	b.zs = slices.Grow(b.zs, n)
	b.negRs = slices.Grow(b.negRs, n)
	b.msgBuf = slices.Grow(b.msgBuf, msgBytes)
}

// Add accumulates one (pubkey, message, signature) triple. The message
// bytes are copied, so callers may reuse the slice immediately (the
// fleet's pooled quote body depends on this).
func (b *BatchVerifier) Add(pub PublicKey, msg, sig []byte) {
	b.add(pub, msg, sig, nil, nil)
}

// RHint carries the affine coordinates of a signature's commitment
// point R from a VartimeSigner to a BatchVerifier, sparing the
// verifier R's square-root decompression. It is advisory: the verifier
// validates it against the signature bytes before use, so a corrupted
// hint only costs speed, never correctness.
type RHint struct {
	x, y edwards25519.Element
}

// AddHinted is Add for callers holding the R hint the VartimeSigner
// emitted alongside the signature. The hint replaces R's square-root
// decompression with a ~50x cheaper curve-equation check; a wrong hint
// is not trusted, it just routes the entry to the individual-verify
// fallback.
func (b *BatchVerifier) AddHinted(pub PublicKey, msg, sig []byte, hint *RHint) {
	b.add(pub, msg, sig, &hint.x, &hint.y)
}

func (b *BatchVerifier) add(pub PublicKey, msg, sig []byte, rx, ry *edwards25519.Element) {
	idx := len(b.entries)
	b.entries = append(b.entries, batchEntry{})
	b.zs = append(b.zs, edwards25519.Scalar{})
	b.negRs = append(b.negRs, edwards25519.AffineCached{})
	e := &b.entries[idx]

	// Copy the message: it is needed again only on the fallback path,
	// by which time the caller may have reused its buffer.
	e.msgOff = len(b.msgBuf)
	e.msgLen = len(msg)
	b.msgBuf = append(b.msgBuf, msg...)

	e.group = b.groupFor(pub)
	e.sigLen = len(sig)
	copy(e.sig[:], sig)

	// Admission: anything ed25519.Verify would reject at parse time —
	// or that we simply cannot decode — bypasses the combination and
	// keeps the stdlib verdict via the fallback. z stays zero, so the
	// entry contributes nothing to the combined equation.
	if len(sig) != ed25519.SignatureSize || !b.groups[e.group].pubValid {
		e.fallback = true
		return
	}
	if !e.s.SetCanonicalBytes(sig[32:]) {
		e.fallback = true
		return
	}
	var encR [32]byte
	copy(encR[:], sig[:32])
	var r edwards25519.AffineCached
	if rx != nil {
		if !r.SetHinted(rx, ry, &encR) {
			e.fallback = true
			return
		}
	} else if !r.SetBytes(encR[:]) {
		e.fallback = true
		return
	}
	b.negRs[idx].Negate(&r)

	b.hashBuf = append(b.hashBuf[:0], encR[:]...)
	b.hashBuf = append(b.hashBuf, b.groups[e.group].pub...)
	b.hashBuf = append(b.hashBuf, msg...)
	hDigest := sha512.Sum512(b.hashBuf)
	e.h.SetUniformBytes(hDigest[:])

	// A failed draw leaves zBuf holding an earlier coefficient, and two
	// entries sharing one z can cancel each other's defects, so such an
	// entry keeps z = 0 and takes the stdlib fallback.
	if _, err := io.ReadFull(b.coeff, b.zBuf[:]); err != nil {
		e.fallback = true
		return
	}
	// The coefficient is forced odd: an odd z is invertible in the
	// 8-torsion subgroup, so a single small-order defect can never be
	// annihilated by its own coefficient.
	b.zBuf[0] |= 1
	b.zs[idx].SetShortBytes(b.zBuf[:])
}

// groupFor returns the group index for pub, creating it on first use.
// It checks the most recent group first: a fleet flush spans several
// epochs, each under its own AIK, so this is O(1) per Add.
func (b *BatchVerifier) groupFor(pub PublicKey) int {
	for i := len(b.groups) - 1; i >= 0; i-- {
		if string(b.groups[i].pub) == string(pub) {
			return i
		}
	}
	b.groups = append(b.groups, batchGroup{pub: append([]byte(nil), pub...)})
	g := &b.groups[len(b.groups)-1]
	if len(pub) == ed25519.PublicKeySize {
		var a edwards25519.Point
		if a.SetBytes(g.pub) {
			g.negA.Negate(&a)
			g.pubValid = true
		}
	}
	return len(b.groups) - 1
}

// Flush verifies everything accumulated since the last Flush and
// returns one verdict per Add, in Add order. The returned slice is
// pooled and valid until the next Flush. The verifier is left empty
// and ready for reuse with the same coefficient stream.
func (b *BatchVerifier) Flush() []bool {
	n := len(b.entries)
	if cap(b.results) < n {
		b.results = make([]bool, n)
	}
	b.results = b.results[:n]
	b.resolveRange(0, n)
	for i := range b.entries {
		if b.entries[i].fallback {
			b.results[i] = b.verifyOne(i)
		}
	}
	b.entries = b.entries[:0]
	b.zs = b.zs[:0]
	b.negRs = b.negRs[:0]
	b.groups = b.groups[:0]
	b.msgBuf = b.msgBuf[:0]
	return b.results
}

// resolveRange writes verdicts for every non-fallback entry in
// [lo, hi): one combined check if it holds, otherwise bisect down to
// individual stdlib verification. Reusing the recorded z_i on every
// sub-range keeps the whole resolution a deterministic function of the
// Add sequence.
func (b *BatchVerifier) resolveRange(lo, hi int) {
	if lo >= hi {
		return
	}
	if b.combinedHolds(lo, hi) {
		for i := lo; i < hi; i++ {
			if !b.entries[i].fallback {
				b.results[i] = true
			}
		}
		return
	}
	if hi-lo == 1 {
		b.results[lo] = b.verifyOne(lo)
		return
	}
	mid := lo + (hi-lo)/2
	b.resolveRange(lo, mid)
	b.resolveRange(mid, hi)
}

// combinedHolds evaluates the batch equation over [lo, hi).
func (b *BatchVerifier) combinedHolds(lo, hi int) bool {
	// S = sum z_i*s_i, and per pubkey group a_j = sum z_i*h_i.
	var s, t edwards25519.Scalar
	if cap(b.coeffs) < len(b.groups) {
		b.coeffs = make([]edwards25519.Scalar, len(b.groups))
		b.touched = make([]bool, len(b.groups))
		b.termCoeffs = make([]edwards25519.Scalar, 0, len(b.groups))
		b.termPoints = make([]edwards25519.Point, 0, len(b.groups))
	}
	groupCoeffs := b.coeffs[:len(b.groups)]
	groupTouched := b.touched[:len(b.groups)]
	for j := range groupCoeffs {
		groupCoeffs[j] = edwards25519.Scalar{}
		groupTouched[j] = false
	}
	live := 0
	for i := lo; i < hi; i++ {
		e := &b.entries[i]
		if e.fallback {
			continue
		}
		live++
		t.Mul(&b.zs[i], &e.s)
		s.Add(&s, &t)
		t.Mul(&b.zs[i], &e.h)
		groupCoeffs[e.group].Add(&groupCoeffs[e.group], &t)
		groupTouched[e.group] = true
	}
	if live == 0 {
		return true
	}
	b.termCoeffs, b.termPoints = b.termCoeffs[:0], b.termPoints[:0]
	for j := range b.groups {
		if groupTouched[j] {
			b.termCoeffs = append(b.termCoeffs, groupCoeffs[j])
			b.termPoints = append(b.termPoints, b.groups[j].negA)
		}
	}
	var acc edwards25519.Point
	acc.MultiScalarMultVartime(&s, b.termCoeffs, b.termPoints, b.zs[lo:hi], b.negRs[lo:hi], &b.msm, b.runner)
	return acc.IsIdentity()
}

// verifyOne resolves a single entry with the stock library, which by
// construction yields the exact verdict the unbatched path would have.
func (b *BatchVerifier) verifyOne(i int) bool {
	e := &b.entries[i]
	if e.sigLen != ed25519.SignatureSize {
		return false // what Verify returns for any missized signature
	}
	g := &b.groups[e.group]
	msg := b.msgBuf[e.msgOff : e.msgOff+e.msgLen]
	return PublicKey(g.pub).Verify(msg, e.sig[:])
}

// VartimeSigner is a device-side Ed25519 signer producing signatures
// byte-identical to KeyPair.Sign and emitting the affine commitment
// point for BatchVerifier.AddHinted. On a shared 2-vCPU Xeon (medians
// of 6 interleaved runs), Sign took 17.5 µs and SignBatch 10.3 µs per
// signature over a 256-message epoch, against 41.2 µs for
// crypto/ed25519.Sign. It trades away constant-time execution, which
// the simulation's synthetic keys do not need; see
// internal/edwards25519's package comment.
type VartimeSigner struct {
	sg     edwards25519.Signer
	pub    [ed25519.PublicKeySize]byte
	rx, ry []edwards25519.Element // pooled SignBatch hint coordinates
}

// Init (re)derives the signer from a 32-byte seed, reusing all storage.
func (v *VartimeSigner) Init(seed []byte) {
	v.sg.Init(seed)
	v.pub = v.sg.PublicKey()
}

// SetRunner makes later SignBatch calls split their work into tasks
// on r (see edwards25519.Signer.SetRunner); nil, the default, runs
// them on the caller. The signatures are the same either way.
func (v *VartimeSigner) SetRunner(r edwards25519.Runner) { v.sg.SetRunner(r) }

// Public returns the public key. The returned slice aliases the
// signer; callers must not modify it.
func (v *VartimeSigner) Public() PublicKey { return PublicKey(v.pub[:]) }

// Sign signs msg, returning the signature and the R hint for
// BatchVerifier.AddHinted.
func (v *VartimeSigner) Sign(msg []byte) (sig [64]byte, hint RHint) {
	sig, hint.x, hint.y = v.sg.Sign(msg)
	return sig, hint
}

// SignBatch signs every msgs[i] into sigs[i] with its R hint in
// hints[i]; all three slices must have the same length. The signatures
// and hints are the ones Sign would return, but the batch shares one
// field inversion, so a provisioning epoch signs in one call.
func (v *VartimeSigner) SignBatch(msgs [][]byte, sigs [][64]byte, hints []RHint) {
	n := len(hints)
	if cap(v.rx) < n {
		v.rx = make([]edwards25519.Element, n)
		v.ry = make([]edwards25519.Element, n)
	}
	rx, ry := v.rx[:n], v.ry[:n]
	v.sg.SignBatch(msgs, sigs, rx, ry)
	for i := range hints {
		hints[i] = RHint{x: rx[i], y: ry[i]}
	}
}
