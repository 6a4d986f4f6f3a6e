package edwards25519

import "crypto/sha512"

// Signer produces RFC 8032 Ed25519 signatures byte-identical to
// crypto/ed25519.Sign, using the package's variable-time arithmetic,
// and additionally exposes the affine R point as a decompression hint
// for BatchVerifier-style consumers. See the package comment for the
// variable-time caveat.
type Signer struct {
	a      Scalar
	prefix [32]byte
	pub    [32]byte
	// Pooled batch state, so signing stays alloc-free once warm: the
	// hash-input buffer, and per message the nonce r_i and R_i = r_i*B.
	buf []byte
	rs  []Scalar
	pts []Point
}

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
	msgs := [1][]byte{msg}
	var sigs [1][64]byte
	var xs, ys [1]Element
	sg.SignBatch(msgs[:], sigs[:], xs[:], ys[:])
	return sigs[0], xs[0], ys[0]
}

// SignBatch signs every msgs[i] into sigs[i], with R's affine
// coordinates in (rx[i], ry[i]); all four slices must have the same
// length. Each signature is the one Sign would return. The batch
// shares one field inversion: every R_i = r_i*B stays projective until
// one inversion of the product of their Z coordinates makes them all
// affine (Montgomery's trick), which is what R's encoding needs.
func (sg *Signer) SignBatch(msgs [][]byte, sigs [][64]byte, rx, ry []Element) {
	n := len(msgs)
	if len(sigs) != n || len(rx) != n || len(ry) != n {
		panic("edwards25519: SignBatch slice lengths differ")
	}
	if cap(sg.pts) < n {
		sg.rs = make([]Scalar, n)
		sg.pts = make([]Point, n)
	}
	rs, pts := sg.rs[:n], sg.pts[:n]

	// Pass 1: r_i = H(prefix || m_i) and R_i = r_i*B.
	for i, msg := range msgs {
		sg.buf = append(sg.buf[:0], sg.prefix[:]...)
		sg.buf = append(sg.buf, msg...)
		rDigest := sha512.Sum512(sg.buf)
		rs[i].SetUniformBytes(rDigest[:])
		pts[i].ScalarBaseMultVartime(&rs[i])
	}
	batchAffine(pts, rx, ry)

	// Pass 2: encode R_i, then s_i = H(R_i || A || m_i)*a + r_i.
	for i, msg := range msgs {
		rEnc := ry[i].Bytes()
		if rx[i].IsNegative() {
			rEnc[31] |= 0x80
		}
		sg.buf = append(sg.buf[:0], rEnc[:]...)
		sg.buf = append(sg.buf, sg.pub[:]...)
		sg.buf = append(sg.buf, msg...)
		hDigest := sha512.Sum512(sg.buf)
		var k, s Scalar
		k.SetUniformBytes(hDigest[:])
		s.Mul(&k, &sg.a)
		s.Add(&s, &rs[i])

		copy(sigs[i][:32], rEnc[:])
		sBytes := s.Bytes()
		copy(sigs[i][32:], sBytes[:])
	}
}
