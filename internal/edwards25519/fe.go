package edwards25519

import "math/bits"

// Element is an element of GF(2^255-19), held as four saturated 64-bit
// little-endian limbs, v = l0 + l1*2^64 + l2*2^128 + l3*2^192: the
// layout Scalar uses. Between operations an Element may hold any value
// below 2^256, so it is congruent to its residue mod p but need not
// equal it. Add, Sub and Mul fold whatever crosses 2^256 back in as 38
// (2^256 = 38 mod p); only Bytes, and through it Equal, IsZero and
// IsNegative, reduces to the canonical residue. Every method accepts
// any value below 2^256.
type Element struct {
	l0, l1, l2, l3 uint64
}

// feZero and feOne are the additive and multiplicative identities.
var (
	feZero = Element{}
	feOne  = Element{l0: 1}
)

// Add sets v = a + b and returns v.
func (v *Element) Add(a, b *Element) *Element {
	l0, c := bits.Add64(a.l0, b.l0, 0)
	l1, c := bits.Add64(a.l1, b.l1, c)
	l2, c := bits.Add64(a.l2, b.l2, c)
	l3, c := bits.Add64(a.l3, b.l3, c)
	l0, c = bits.Add64(l0, c*38, 0)
	l1, c = bits.Add64(l1, 0, c)
	l2, c = bits.Add64(l2, 0, c)
	l3, c = bits.Add64(l3, 0, c)
	// A second carry leaves a sum below 38 in l0 alone, so this last
	// fold cannot carry.
	v.l0, v.l1, v.l2, v.l3 = l0+c*38, l1, l2, l3
	return v
}

// Sub sets v = a - b and returns v.
func (v *Element) Sub(a, b *Element) *Element {
	l0, c := bits.Sub64(a.l0, b.l0, 0)
	l1, c := bits.Sub64(a.l1, b.l1, c)
	l2, c := bits.Sub64(a.l2, b.l2, c)
	l3, c := bits.Sub64(a.l3, b.l3, c)
	l0, c = bits.Sub64(l0, c*38, 0)
	l1, c = bits.Sub64(l1, 0, c)
	l2, c = bits.Sub64(l2, 0, c)
	l3, c = bits.Sub64(l3, 0, c)
	// A second borrow leaves at least 2^64-38 in l0, so this last fold
	// cannot borrow.
	v.l0, v.l1, v.l2, v.l3 = l0-c*38, l1, l2, l3
	return v
}

// Negate sets v = -a and returns v.
func (v *Element) Negate(a *Element) *Element {
	return v.Sub(&feZero, a)
}

// Mul sets v = a * b and returns v: a 4x4 schoolbook product whose high
// 256 bits are folded into the low ones times 38. It is one function
// body because the compiler inlines neither a per-row helper nor a
// separate fold into it, and their calls cost more than their work.
func (v *Element) Mul(a, b *Element) *Element {
	a0, a1, a2, a3 := a.l0, a.l1, a.l2, a.l3
	b0, b1, b2, b3 := b.l0, b.l1, b.l2, b.l3

	// r0..r4 = a0 * b.
	h0, r0 := bits.Mul64(a0, b0)
	h1, l1 := bits.Mul64(a0, b1)
	h2, l2 := bits.Mul64(a0, b2)
	h3, l3 := bits.Mul64(a0, b3)
	r1, c := bits.Add64(l1, h0, 0)
	r2, c := bits.Add64(l2, h1, c)
	r3, c := bits.Add64(l3, h2, c)
	r4 := h3 + c

	// r1..r5 += a1 * b.
	h0, l0 := bits.Mul64(a1, b0)
	h1, l1 = bits.Mul64(a1, b1)
	h2, l2 = bits.Mul64(a1, b2)
	h3, l3 = bits.Mul64(a1, b3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	r1, c = bits.Add64(r1, l0, 0)
	r2, c = bits.Add64(r2, l1, c)
	r3, c = bits.Add64(r3, l2, c)
	r4, c = bits.Add64(r4, l3, c)
	r5 := h3 + c

	// r2..r6 += a2 * b.
	h0, l0 = bits.Mul64(a2, b0)
	h1, l1 = bits.Mul64(a2, b1)
	h2, l2 = bits.Mul64(a2, b2)
	h3, l3 = bits.Mul64(a2, b3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	r2, c = bits.Add64(r2, l0, 0)
	r3, c = bits.Add64(r3, l1, c)
	r4, c = bits.Add64(r4, l2, c)
	r5, c = bits.Add64(r5, l3, c)
	r6 := h3 + c

	// r3..r7 += a3 * b.
	h0, l0 = bits.Mul64(a3, b0)
	h1, l1 = bits.Mul64(a3, b1)
	h2, l2 = bits.Mul64(a3, b2)
	h3, l3 = bits.Mul64(a3, b3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	r3, c = bits.Add64(r3, l0, 0)
	r4, c = bits.Add64(r4, l1, c)
	r5, c = bits.Add64(r5, l2, c)
	r6, c = bits.Add64(r6, l3, c)
	r7 := h3 + c

	// r0..r3 += 38 * r4..r7, whose top limb h3 is at most 37.
	h0, l0 = bits.Mul64(r4, 38)
	h1, l1 = bits.Mul64(r5, 38)
	h2, l2 = bits.Mul64(r6, 38)
	h3, l3 = bits.Mul64(r7, 38)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	r0, c = bits.Add64(r0, l0, 0)
	r1, c = bits.Add64(r1, l1, c)
	r2, c = bits.Add64(r2, l2, c)
	r3, c = bits.Add64(r3, l3, c)
	h3 += c

	// Fold the last limb, then a carry exactly as Add does.
	r0, c = bits.Add64(r0, h3*38, 0)
	r1, c = bits.Add64(r1, 0, c)
	r2, c = bits.Add64(r2, 0, c)
	r3, c = bits.Add64(r3, 0, c)
	v.l0, v.l1, v.l2, v.l3 = r0+c*38, r1, r2, r3
	return v
}

// Square sets v = a * a and returns v. A dedicated squaring would save
// six of Mul's sixteen products, but the hot paths square a handful of
// times per device against hundreds of multiplications.
func (v *Element) Square(a *Element) *Element {
	return v.Mul(a, a)
}

// reduce brings v to its canonical residue, below p.
func (v *Element) reduce() *Element {
	// Fold bit 255 back in as 19 (2^255 = 19 mod p), leaving at most
	// 2^255 + 18.
	l0, c := bits.Add64(v.l0, (v.l3>>63)*19, 0)
	l1, c := bits.Add64(v.l1, 0, c)
	l2, c := bits.Add64(v.l2, 0, c)
	l3 := v.l3&(1<<63-1) + c

	// v >= p iff v + 19 >= 2^255, and then v - p is v + 19 without its
	// bit 255.
	t0, c := bits.Add64(l0, 19, 0)
	t1, c := bits.Add64(l1, 0, c)
	t2, c := bits.Add64(l2, 0, c)
	t3 := l3 + c
	if t3>>63 != 0 {
		l0, l1, l2, l3 = t0, t1, t2, t3&(1<<63-1)
	}
	v.l0, v.l1, v.l2, v.l3 = l0, l1, l2, l3
	return v
}

// Bytes returns the canonical 32-byte little-endian encoding of v.
func (v *Element) Bytes() [32]byte {
	t := *v
	t.reduce()
	var out [32]byte
	putUint64LE(out[0:], t.l0)
	putUint64LE(out[8:], t.l1)
	putUint64LE(out[16:], t.l2)
	putUint64LE(out[24:], t.l3)
	return out
}

// SetBytes decodes a canonical 32-byte little-endian encoding into v.
// It reports false for a non-canonical encoding (value >= p, including
// any use of the unused 256th bit), leaving v unspecified — stricter
// than RFC 8032 decoding, which the batch verifier relies on: anything
// this decoder rejects is routed to the stdlib-verify fallback, so
// strictness can never diverge from crypto/ed25519's verdict.
func (v *Element) SetBytes(x []byte) bool {
	if len(x) != 32 {
		return false
	}
	v.l0 = getUint64LE(x[0:])
	v.l1 = getUint64LE(x[8:])
	v.l2 = getUint64LE(x[16:])
	v.l3 = getUint64LE(x[24:])
	if v.l3>>63 != 0 {
		return false // the sign/overflow bit is not part of a field encoding
	}
	// Canonical iff v < p, that is iff v + 19 stays below 2^255.
	_, c := bits.Add64(v.l0, 19, 0)
	_, c = bits.Add64(v.l1, 0, c)
	_, c = bits.Add64(v.l2, 0, c)
	return (v.l3+c)>>63 == 0
}

func getUint64LE(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putUint64LE(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// IsNegative reports whether the canonical encoding of v has its low
// bit set (the "sign" RFC 8032 stores in the top encoding bit).
func (v *Element) IsNegative() bool {
	b := v.Bytes()
	return b[0]&1 == 1
}

// IsZero reports whether v == 0.
func (v *Element) IsZero() bool {
	b := v.Bytes()
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v == u.
func (v *Element) Equal(u *Element) bool {
	a, b := v.Bytes(), u.Bytes()
	return a == b
}

// pow22523 sets v = a^((p-5)/8) = a^(2^252 - 3), the shared core of
// inversion-free square roots.
func (v *Element) pow22523(a *Element) *Element {
	var t0, t1, t2 Element

	t0.Square(a)             // a^2
	t1.Square(&t0)           // a^4
	t1.Square(&t1)           // a^8
	t1.Mul(a, &t1)           // a^9
	t0.Mul(&t0, &t1)         // a^11
	t0.Square(&t0)           // a^22
	t0.Mul(&t1, &t0)         // a^31 = a^(2^5-1)
	t1.Square(&t0)           // a^(2^6-2)
	for i := 1; i < 5; i++ { // a^(2^10-2^5)
		t1.Square(&t1)
	}
	t0.Mul(&t1, &t0)          // a^(2^10-1)
	t1.Square(&t0)            //
	for i := 1; i < 10; i++ { // a^(2^20-2^10)
		t1.Square(&t1)
	}
	t1.Mul(&t1, &t0)          // a^(2^20-1)
	t2.Square(&t1)            //
	for i := 1; i < 20; i++ { // a^(2^40-2^20)
		t2.Square(&t2)
	}
	t1.Mul(&t2, &t1)          // a^(2^40-1)
	t1.Square(&t1)            //
	for i := 1; i < 10; i++ { // a^(2^50-2^10)
		t1.Square(&t1)
	}
	t0.Mul(&t1, &t0)          // a^(2^50-1)
	t1.Square(&t0)            //
	for i := 1; i < 50; i++ { // a^(2^100-2^50)
		t1.Square(&t1)
	}
	t1.Mul(&t1, &t0)           // a^(2^100-1)
	t2.Square(&t1)             //
	for i := 1; i < 100; i++ { // a^(2^200-2^100)
		t2.Square(&t2)
	}
	t1.Mul(&t2, &t1)          // a^(2^200-1)
	t1.Square(&t1)            //
	for i := 1; i < 50; i++ { // a^(2^250-2^50)
		t1.Square(&t1)
	}
	t0.Mul(&t1, &t0)     // a^(2^250-1)
	t0.Square(&t0)       // a^(2^251-2)
	t0.Square(&t0)       // a^(2^252-4)
	return v.Mul(&t0, a) // a^(2^252-3)
}

// Invert sets v = a^-1 = a^(p-2) and returns v. Inverting zero yields
// zero.
func (v *Element) Invert(a *Element) *Element {
	// p-2 = 2^255 - 21 = (2^252-3)*8 + 3: reuse the pow22523 chain.
	var t, a2 Element
	t.pow22523(a)         // a^(2^252-3)
	t.Square(&t)          // a^(2^253-6)
	t.Square(&t)          // a^(2^254-12)
	t.Square(&t)          // a^(2^255-24)
	a2.Square(a)          // a^2
	a2.Mul(&a2, a)        // a^3
	return v.Mul(&t, &a2) // a^(2^255-21)
}

// SqrtRatio sets v to the non-negative square root of u/w, returning
// whether u/w was square. On a non-square it sets v to
// sqrt(sqrtM1*u/w), matching the convention of RFC 9496 §4.2 (the
// caller only uses v when ok is true).
func (v *Element) SqrtRatio(u, w *Element) (ok bool) {
	var v3, v7, r, check Element

	v3.Square(w)   // w^2
	v3.Mul(&v3, w) // w^3
	v7.Square(&v3) // w^6
	v7.Mul(&v7, w) // w^7
	r.Mul(u, &v7)  // u*w^7
	r.pow22523(&r) // (u*w^7)^((p-5)/8)
	r.Mul(&r, &v3) // u^((p+3)/8) * w^((p-5)/8 * 8 + 3)… = candidate
	r.Mul(&r, u)   // candidate root of u/w

	check.Square(&r)     // r^2
	check.Mul(&check, w) // w*r^2, should be ±u

	var negU, mulM1 Element
	negU.Negate(u)
	switch {
	case check.Equal(u):
		ok = true
	case check.Equal(&negU):
		mulM1.Mul(&r, &sqrtM1)
		r = mulM1
		ok = true
	default:
		ok = false
	}
	if r.IsNegative() {
		r.Negate(&r)
	}
	*v = r
	return ok
}
