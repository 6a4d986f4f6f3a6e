package edwards25519

import "crypto/sha512"

// Signer produces RFC 8032 Ed25519 signatures byte-identical to
// crypto/ed25519.Sign, using the package's variable-time arithmetic,
// and additionally exposes the affine R point as a decompression hint
// for BatchVerifier-style consumers. See the package comment for the
// variable-time caveat. A Signer must not be copied once used.
type Signer struct {
	a      Scalar
	prefix [32]byte
	pub    [32]byte
	// Pooled batch state, so signing stays alloc-free once warm: each
	// worker's hash-input buffer, and per message the nonce r_i and
	// R_i = r_i*B.
	bufs [][]byte
	rs   []Scalar
	pts  []Point

	runner Runner
	// The batch in progress, read by the two passes' tasks, which are
	// bound once.
	msgs             [][]byte
	sigs             [][64]byte
	rx, ry           []Element
	commits, answers func(worker, chunk int)
	// Sign's batch of one, pooled because the batch in progress lives
	// in the signer.
	one struct {
		msgs   [1][]byte
		sigs   [1][64]byte
		rx, ry [1]Element
	}
}

// signChunk is how many messages one signing task covers: small enough
// that a helper joining late still finds work, large enough that
// claiming a task costs nothing next to it.
const signChunk = 16

// SetRunner makes later SignBatch calls split their two passes over
// index chunks into tasks on r; nil, the default, runs them on the
// caller. The signatures are the same either way.
func (sg *Signer) SetRunner(r Runner) { sg.runner = r }

// Init derives the signing state from a 32-byte Ed25519 seed.
func (sg *Signer) Init(seed []byte) {
	if len(seed) != 32 {
		panic("edwards25519: Signer seed is not 32 bytes")
	}
	h := sha512.Sum512(seed)
	var clamped [64]byte
	copy(clamped[:32], h[:32])
	clamped[0] &= 248
	clamped[31] &= 127
	clamped[31] |= 64
	// The clamped scalar is used modulo the group order; reducing it
	// here keeps every later use canonical.
	sg.a.SetUniformBytes(clamped[:])
	copy(sg.prefix[:], h[32:])
	var A Point
	A.ScalarBaseMultVartime(&sg.a)
	sg.pub = A.Bytes()
}

// PublicKey returns the 32-byte public key encoding.
func (sg *Signer) PublicKey() [32]byte { return sg.pub }

// Sign signs msg, returning the 64-byte signature along with the
// affine coordinates of the commitment point R. The signature bytes
// are exactly what crypto/ed25519.Sign would produce for the same
// seed and message; the coordinates let a verifier skip decompressing
// R from the signature.
func (sg *Signer) Sign(msg []byte) (sig [64]byte, rx, ry Element) {
	one := &sg.one
	one.msgs[0] = msg
	sg.SignBatch(one.msgs[:], one.sigs[:], one.rx[:], one.ry[:])
	one.msgs[0] = nil
	return one.sigs[0], one.rx[0], one.ry[0]
}

// SignBatch signs every msgs[i] into sigs[i], with R's affine
// coordinates in (rx[i], ry[i]); all four slices must have the same
// length. Each signature is the one Sign would return. The batch
// shares one field inversion: every R_i = r_i*B stays projective until
// one inversion of the product of their Z coordinates makes them all
// affine (Montgomery's trick), which is what R's encoding needs. The
// passes before and after the inversion treat each message on its
// own, so they run as chunked tasks on the signer's Runner.
func (sg *Signer) SignBatch(msgs [][]byte, sigs [][64]byte, rx, ry []Element) {
	n := len(msgs)
	if len(sigs) != n || len(rx) != n || len(ry) != n {
		panic("edwards25519: SignBatch slice lengths differ")
	}
	if cap(sg.pts) < n {
		sg.rs = make([]Scalar, n)
		sg.pts = make([]Point, n)
	}
	for len(sg.bufs) < workersOf(sg.runner) {
		sg.bufs = append(sg.bufs, nil)
	}
	if sg.commits == nil {
		sg.commits, sg.answers = sg.commit, sg.answer
	}
	sg.msgs, sg.sigs, sg.rx, sg.ry = msgs, sigs, rx, ry
	chunks := (n + signChunk - 1) / signChunk
	runTasks(sg.runner, chunks, sg.commits)
	batchAffine(sg.pts[:n], rx, ry)
	runTasks(sg.runner, chunks, sg.answers)
	sg.msgs, sg.sigs, sg.rx, sg.ry = nil, nil, nil, nil
}

// commit is pass 1 over one chunk: r_i = H(prefix || m_i) and
// R_i = r_i*B.
func (sg *Signer) commit(worker, chunk int) {
	lo, hi := chunk*signChunk, min((chunk+1)*signChunk, len(sg.msgs))
	buf := sg.bufs[worker]
	for i := lo; i < hi; i++ {
		buf = append(buf[:0], sg.prefix[:]...)
		buf = append(buf, sg.msgs[i]...)
		rDigest := sha512.Sum512(buf)
		sg.rs[i].SetUniformBytes(rDigest[:])
		sg.pts[i].ScalarBaseMultVartime(&sg.rs[i])
	}
	sg.bufs[worker] = buf
}

// answer is pass 2 over one chunk: encode R_i, then
// s_i = H(R_i || A || m_i)*a + r_i.
func (sg *Signer) answer(worker, chunk int) {
	lo, hi := chunk*signChunk, min((chunk+1)*signChunk, len(sg.msgs))
	buf := sg.bufs[worker]
	for i := lo; i < hi; i++ {
		rEnc := sg.ry[i].Bytes()
		if sg.rx[i].IsNegative() {
			rEnc[31] |= 0x80
		}
		buf = append(buf[:0], rEnc[:]...)
		buf = append(buf, sg.pub[:]...)
		buf = append(buf, sg.msgs[i]...)
		hDigest := sha512.Sum512(buf)
		var k, s Scalar
		k.SetUniformBytes(hDigest[:])
		s.Mul(&k, &sg.a)
		s.Add(&s, &sg.rs[i])

		copy(sg.sigs[i][:32], rEnc[:])
		sBytes := s.Bytes()
		copy(sg.sigs[i][32:], sBytes[:])
	}
	sg.bufs[worker] = buf
}
