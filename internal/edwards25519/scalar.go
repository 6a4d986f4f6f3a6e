package edwards25519

import "math/bits"

// Scalar is an integer modulo the prime group order
// l = 2^252 + 27742317777372353535851937790883648493, held as four
// 64-bit little-endian limbs in fully reduced form.
type Scalar struct {
	limbs [4]uint64
}

// The group order l = 2^252 + scC, with scC the low 125-bit tail.
const (
	scC0 = 0x5812631A5CF5D3ED // low limb of the tail c
	scC1 = 0x14DEF9DEA2F79CD6 // high limb of the tail c
	scL0 = scC0
	scL1 = scC1
	scL2 = 0
	scL3 = 1 << 60
)

// SetCanonicalBytes decodes a 32-byte little-endian scalar, reporting
// whether it was canonical (strictly below l). This mirrors the s < l
// check crypto/ed25519 applies to the second half of a signature.
func (s *Scalar) SetCanonicalBytes(in []byte) bool {
	if len(in) != 32 {
		return false
	}
	var v [4]uint64
	for i := range v {
		v[i] = getUint64LE(in[8*i:])
	}
	// Reject v >= l via a borrow-probe subtraction.
	_, b := bits.Sub64(v[0], scL0, 0)
	_, b = bits.Sub64(v[1], scL1, b)
	_, b = bits.Sub64(v[2], scL2, b)
	_, b = bits.Sub64(v[3], scL3, b)
	if b == 0 {
		return false
	}
	s.limbs = v
	return true
}

// SetShortBytes decodes up to 16 little-endian bytes as a scalar. Any
// 128-bit value is below l, so this cannot fail; it is how the batch
// verifier loads its random linear-combination coefficients.
func (s *Scalar) SetShortBytes(in []byte) *Scalar {
	if len(in) > 16 {
		panic("edwards25519: SetShortBytes input exceeds 16 bytes")
	}
	var buf [16]byte
	copy(buf[:], in)
	s.limbs = [4]uint64{getUint64LE(buf[:]), getUint64LE(buf[8:]), 0, 0}
	return s
}

// SetUniformBytes sets s to the 64-byte little-endian value reduced
// modulo l, as used for SHA-512 outputs in the signature equation.
func (s *Scalar) SetUniformBytes(in []byte) *Scalar {
	if len(in) != 64 {
		panic("edwards25519: SetUniformBytes input is not 64 bytes")
	}
	var v [8]uint64
	for i := range v {
		v[i] = getUint64LE(in[8*i:])
	}
	s.limbs = reduce512(v)
	return s
}

// Bytes returns the canonical 32-byte little-endian encoding of s.
func (s *Scalar) Bytes() [32]byte {
	var out [32]byte
	for i, l := range s.limbs {
		putUint64LE(out[8*i:], l)
	}
	return out
}

// Add sets s = a + b mod l.
func (s *Scalar) Add(a, b *Scalar) *Scalar {
	var v [4]uint64
	var c uint64
	v[0], c = bits.Add64(a.limbs[0], b.limbs[0], 0)
	v[1], c = bits.Add64(a.limbs[1], b.limbs[1], c)
	v[2], c = bits.Add64(a.limbs[2], b.limbs[2], c)
	v[3], _ = bits.Add64(a.limbs[3], b.limbs[3], c)
	// The sum is below 2l < 2^254, so one conditional subtraction of l
	// restores canonical form.
	var r [4]uint64
	var bb uint64
	r[0], bb = bits.Sub64(v[0], scL0, 0)
	r[1], bb = bits.Sub64(v[1], scL1, bb)
	r[2], bb = bits.Sub64(v[2], scL2, bb)
	r[3], bb = bits.Sub64(v[3], scL3, bb)
	if bb == 0 {
		s.limbs = r
	} else {
		s.limbs = v
	}
	return s
}

// Mul sets s = a * b mod l via a 4x4 schoolbook product and a wide
// reduction.
func (s *Scalar) Mul(a, b *Scalar) *Scalar {
	var w [8]uint64
	for i, ai := range a.limbs {
		var carry uint64
		for j, bj := range b.limbs {
			hi, lo := bits.Mul64(ai, bj)
			var c uint64
			w[i+j], c = bits.Add64(w[i+j], lo, 0)
			hi += c
			w[i+j], c = bits.Add64(w[i+j], carry, 0)
			carry = hi + c
		}
		w[i+4] = carry
	}
	s.limbs = reduce512(w)
	return s
}

// reduce512 reduces a 512-bit little-endian value modulo l. It folds
// v = hi*2^252 + lo using 2^252 ≡ -c (mod l), tracking the sign of the
// accumulator: each fold replaces v with |lo - hi*c|, flipping the
// sign when hi*c exceeds lo. The magnitude shrinks by ~119 bits per
// fold, so three folds reach a value below 2^252 < l, and a final
// l - v fixes up a negative accumulator.
func reduce512(v [8]uint64) [4]uint64 {
	neg := false
	for v[4]|v[5]|v[6]|v[7] != 0 || v[3]>>60 != 0 {
		// hi = v >> 252 (at most 5 limbs), lo = v mod 2^252.
		var hi [5]uint64
		for i := 0; i < 5; i++ {
			hi[i] = v[3+i] >> 60
			if 4+i < 8 {
				hi[i] |= v[4+i] << 4
			}
		}
		var lo [8]uint64
		lo[0], lo[1], lo[2], lo[3] = v[0], v[1], v[2], v[3]&(1<<60-1)
		// t = hi * c, at most 7 limbs.
		var t [8]uint64
		var carry uint64
		for i, h := range hi {
			chi, clo := bits.Mul64(h, scC0)
			var c uint64
			t[i], c = bits.Add64(t[i], clo, 0)
			chi += c
			t[i], c = bits.Add64(t[i], carry, 0)
			carry = chi + c
		}
		t[5] = carry
		carry = 0
		for i, h := range hi {
			chi, clo := bits.Mul64(h, scC1)
			var c uint64
			t[i+1], c = bits.Add64(t[i+1], clo, 0)
			chi += c
			t[i+1], c = bits.Add64(t[i+1], carry, 0)
			carry = chi + c
		}
		t[6], carry = bits.Add64(t[6], carry, 0)
		t[7] += carry
		// v = |lo - t|, flipping the accumulator sign if t > lo.
		if wideLess(&lo, &t) {
			wideSub(&v, &t, &lo)
			neg = !neg
		} else {
			wideSub(&v, &lo, &t)
		}
	}
	r := [4]uint64{v[0], v[1], v[2], v[3]}
	if neg && r[0]|r[1]|r[2]|r[3] != 0 {
		var b uint64
		r[0], b = bits.Sub64(scL0, r[0], 0)
		r[1], b = bits.Sub64(scL1, r[1], b)
		r[2], b = bits.Sub64(scL2, r[2], b)
		r[3], _ = bits.Sub64(scL3, r[3], b)
	}
	return r
}

// wideLess reports a < b over 8 little-endian limbs.
func wideLess(a, b *[8]uint64) bool {
	for i := 7; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// wideSub sets d = a - b over 8 little-endian limbs; a must be >= b.
func wideSub(d, a, b *[8]uint64) {
	var bw uint64
	for i := 0; i < 8; i++ {
		d[i], bw = bits.Sub64(a[i], b[i], bw)
	}
}
