package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cres/internal/harness"
)

// scalarFromSeed derives the clamped secret scalar the way Ed25519 key
// generation does, reduced mod l.
func scalarFromSeed(seed []byte) *Scalar {
	h := sha512.Sum512(seed)
	var wide [64]byte
	copy(wide[:32], h[:32])
	wide[0] &= 248
	wide[31] &= 127
	wide[31] |= 64
	var s Scalar
	s.SetUniformBytes(wide[:])
	return &s
}

// TestScalarBaseMultMatchesStdlib pins the basepoint table and the
// fixed-base multiply against crypto/ed25519 key generation.
func TestScalarBaseMultMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 50; i++ {
		seed := make([]byte, 32)
		rng.Read(seed)
		pub := ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
		var p Point
		p.ScalarBaseMultVartime(scalarFromSeed(seed))
		if got := p.Bytes(); !bytes.Equal(got[:], pub) {
			t.Fatalf("seed %x: ScalarBaseMult = %x, want %x", seed, got, pub)
		}
	}
}

// edgeScalars are the radix-2^8 digit edge cases: digits at 0, ±1 and
// the ±128 boundary, a carry out of every byte but the top one (0x80
// in each), 2^252 and l-1, the largest canonical scalar.
func edgeScalars() []*big.Int {
	carryChain := new(big.Int).SetBytes(bytes.Repeat([]byte{0x80}, 31))
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(127), big.NewInt(128),
		big.NewInt(129), big.NewInt(255), big.NewInt(256),
		carryChain,
		new(big.Int).Lsh(big.NewInt(1), 252),
		new(big.Int).Sub(scL, big.NewInt(1)),
	}
}

// TestScalarBaseMultEdgeScalars checks the fixed-base table against
// ScalarMultVartime on the basepoint, which uses no fixed-base table.
func TestScalarBaseMultEdgeScalars(t *testing.T) {
	var base Point
	base.setAffine(&genB)
	for _, x := range edgeScalars() {
		s := scFromBig(t, x)
		var got, want Point
		got.ScalarBaseMultVartime(s)
		want.ScalarMultVartime(s, &base)
		if got.Bytes() != want.Bytes() {
			t.Fatalf("scalar %x: ScalarBaseMult = %x, want %x", x, got.Bytes(), want.Bytes())
		}
	}
}

// TestPointRoundTrip decompresses stdlib public keys and re-encodes
// them.
func TestPointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 50; i++ {
		seed := make([]byte, 32)
		rng.Read(seed)
		pub := ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
		var p Point
		if !p.SetBytes(pub) {
			t.Fatalf("SetBytes rejected valid public key %x", pub)
		}
		if got := p.Bytes(); !bytes.Equal(got[:], pub) {
			t.Fatalf("round trip %x -> %x", pub, got)
		}
	}
}

func TestPointSetBytesStrict(t *testing.T) {
	var p Point
	// A y coordinate >= p must be rejected: -1 mod p is canonical, but
	// the same residue encoded as p-1+p is not representable; instead
	// use the encoding of p itself (all bits of 2^255-19).
	enc := bigToLE32(feP)
	if p.SetBytes(enc) {
		t.Fatal("SetBytes accepted a non-canonical y")
	}
	// y = 1 is the identity with x = 0; the sign bit variant encodes
	// "negative zero" and must be rejected.
	one := bigToLE32(big.NewInt(1))
	if !p.SetBytes(one) {
		t.Fatal("SetBytes rejected the identity")
	}
	if !p.IsIdentity() {
		t.Fatal("identity encoding did not decode to the identity")
	}
	one[31] |= 0x80
	if p.SetBytes(one) {
		t.Fatal("SetBytes accepted negative zero")
	}
	// y = 2 is not on the curve.
	two := bigToLE32(big.NewInt(2))
	if p.SetBytes(two) {
		t.Fatal("SetBytes accepted an off-curve y")
	}
	if p.SetBytes(make([]byte, 31)) {
		t.Fatal("SetBytes accepted a short encoding")
	}
}

// TestPointGroupLaws cross-checks Add, Double, Negate, and the two
// scalar multipliers against each other.
func TestPointGroupLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20; i++ {
		sa := randomScalar(rng)
		sb := randomScalar(rng)
		var pa, pb, sum, direct Point
		pa.ScalarBaseMultVartime(sa)
		pb.ScalarBaseMultVartime(sb)
		sum.Add(&pa, &pb)
		var sc Scalar
		sc.Add(sa, sb)
		direct.ScalarBaseMultVartime(&sc)
		if sum.Bytes() != direct.Bytes() {
			t.Fatal("aG + bG != (a+b)G")
		}

		var dbl Point
		dbl.Double(&pa)
		var two Scalar
		two.Add(sa, sa)
		direct.ScalarBaseMultVartime(&two)
		if dbl.Bytes() != direct.Bytes() {
			t.Fatal("2*(aG) != (2a)G")
		}

		var neg Point
		neg.Negate(&pa)
		neg.Add(&neg, &pa)
		if !neg.IsIdentity() {
			t.Fatal("aG + (-aG) != identity")
		}

		// Variable-base multiply against the fixed-base table:
		// sb * (sa*B) == (sa*sb) * B.
		var vb Point
		vb.ScalarMultVartime(sb, &pa)
		var prod Scalar
		prod.Mul(sa, sb)
		direct.ScalarBaseMultVartime(&prod)
		if vb.Bytes() != direct.Bytes() {
			t.Fatal("b*(aB) != (ab)B")
		}
	}
}

// affineCachedOf returns p in the affine readdition form the
// multi-scalar multiplication consumes.
func affineCachedOf(t testing.TB, p *Point) AffineCached {
	var c AffineCached
	enc := p.Bytes()
	if !c.SetBytes(enc[:]) {
		t.Fatal("SetBytes rejected a point's own encoding")
	}
	return c
}

// checkMultiScalarMult compares the multi-scalar multiplication of n
// random points by the 128-bit scalars scalarBytes yields, 16 bytes
// each, plus a fixed-base term and up to three variable-base terms,
// against a naive sum of ScalarMultVartime products. It runs the split
// on one to three workers and on a nil Runner, which must all give the
// same coordinates.
func checkMultiScalarMult(t testing.TB, rng *rand.Rand, n int, scalarBytes func(zb []byte)) {
	scalars := make([]Scalar, n)
	points := make([]AffineCached, n)
	var want Point
	base := *randomScalar(rng)
	want.ScalarBaseMultVartime(&base)
	coeffs := make([]Scalar, n%4)
	terms := make([]Point, n%4)
	for j := range terms {
		coeffs[j] = *randomScalar(rng)
		terms[j].ScalarBaseMultVartime(randomScalar(rng))
		var term Point
		term.ScalarMultVartime(&coeffs[j], &terms[j])
		want.Add(&want, &term)
	}
	for i := 0; i < n; i++ {
		zb := make([]byte, 16)
		scalarBytes(zb)
		scalars[i].SetShortBytes(zb)
		var p, term Point
		p.ScalarBaseMultVartime(randomScalar(rng))
		points[i] = affineCachedOf(t, &p)
		term.ScalarMultVartime(&scalars[i], &p)
		want.Add(&want, &term)
	}
	var serial Point
	serial.MultiScalarMultVartime(&base, coeffs, terms, scalars, points, new(MSMScratch), nil)
	if serial.Bytes() != want.Bytes() {
		t.Fatalf("n=%d (window %d): MSM disagrees with naive sum", n, msmWindow(n))
	}
	scratch := new(MSMScratch) // reused across widths, as a verifier reuses its own
	for helpers := 0; helpers <= 2; helpers++ {
		crew := harness.NewCrew(helpers)
		var got Point
		got.MultiScalarMultVartime(&base, coeffs, terms, scalars, points, scratch, crew)
		crew.Stop()
		if got != serial {
			t.Fatalf("n=%d (window %d), %d workers: split MSM differs from the serial one", n, msmWindow(n), helpers+1)
		}
	}
}

// TestMultiScalarMult checks the Pippenger path against a naive sum
// at sizes that pick windows 2 through 7 and 10, including the empty
// batch.
func TestMultiScalarMult(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, 3, 8, 16, 60, 257, 1024, 4096} {
		checkMultiScalarMult(t, rng, n, func(zb []byte) { rng.Read(zb) })
	}
}

// TestMultiScalarMultWindow pins the window rule at the flush sizes
// the fleet produces.
func TestMultiScalarMultWindow(t *testing.T) {
	for n, want := range map[int]int{1: 2, 4: 2, 256: 6, 1024: 7, 4096: 10} {
		if got := msmWindow(n); got != want {
			t.Errorf("msmWindow(%d) = %d, want %d", n, got, want)
		}
	}
}

// FuzzMultiScalarMult fuzzes the multi-scalar multiplication against
// a naive sum. Up to 300 points makes windows 2 through 6 all occur;
// the scalars cycle through the fuzzer's bytes, so all-ones windows
// that carry into the top digit are one input away.
func FuzzMultiScalarMult(f *testing.F) {
	f.Add(uint16(1), int64(1), []byte{0xff})
	f.Add(uint16(5), int64(2), []byte{0x00})
	f.Add(uint16(40), int64(3), []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(uint16(190), int64(4), []byte{0x01, 0x80, 0xfe})
	f.Add(uint16(300), int64(5), []byte{0xff})
	f.Fuzz(func(t *testing.T, n uint16, pointSeed int64, scalarBytes []byte) {
		if len(scalarBytes) == 0 {
			scalarBytes = []byte{0}
		}
		next := 0
		checkMultiScalarMult(t, rand.New(rand.NewSource(pointSeed)), int(n%301), func(zb []byte) {
			for j := range zb {
				zb[j] = scalarBytes[next%len(scalarBytes)]
				next++
			}
		})
	})
}

// TestSetHinted checks the hint validation accepts exactly the true
// affine preimage of an encoding.
func TestSetHinted(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 20; i++ {
		var p Point
		p.ScalarBaseMultVartime(randomScalar(rng))
		enc := p.Bytes()
		var a affinePoint
		if !a.decompress(enc[:]) {
			t.Fatal("decompress rejected own encoding")
		}
		want := affineCachedOf(t, &p)
		var q AffineCached
		if !q.SetHinted(&a.x, &a.y, &enc) {
			t.Fatal("SetHinted rejected the true hint")
		}
		if q != want {
			t.Fatal("SetHinted produced a different point")
		}
		// A hint for a different point must be rejected even though it
		// is on the curve.
		var wrong Point
		wrong.Double(&p)
		wenc := wrong.Bytes()
		var wa affinePoint
		if !wa.decompress(wenc[:]) {
			t.Fatal("decompress rejected own encoding")
		}
		if q.SetHinted(&wa.x, &wa.y, &enc) {
			t.Fatal("SetHinted accepted a mismatched hint")
		}
		// An off-curve coordinate pair must be rejected.
		var offX Element
		offX.Add(&a.x, &feOne)
		if q.SetHinted(&offX, &a.y, &enc) {
			t.Fatal("SetHinted accepted an off-curve hint")
		}
	}
}

func randomScalar(rng *rand.Rand) *Scalar {
	b := make([]byte, 64)
	rng.Read(b)
	var s Scalar
	s.SetUniformBytes(b)
	return &s
}

// BenchmarkScalarBaseMult cycles through 4096 random scalars, as the
// fleet's fresh nonces do: one fixed scalar would keep every table
// entry it reads in cache.
func BenchmarkScalarBaseMult(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	scalars := make([]Scalar, 4096)
	for i := range scalars {
		scalars[i] = *randomScalar(rng)
	}
	var p Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScalarBaseMultVartime(&scalars[i%len(scalars)])
	}
}

// BenchmarkMultiScalarMult reports the cost per point at a small
// flush, one fleet epoch, four epochs and a whole 4096-device shard.
func BenchmarkMultiScalarMult(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{4, 256, 1024, 4096} {
		scalars := make([]Scalar, n)
		points := make([]AffineCached, n)
		for i := 0; i < n; i++ {
			zb := make([]byte, 16)
			rng.Read(zb)
			scalars[i].SetShortBytes(zb)
			var p Point
			p.ScalarBaseMultVartime(randomScalar(rng))
			points[i] = affineCachedOf(b, &p)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var scratch MSMScratch
			var out Point
			var zero Scalar
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.MultiScalarMultVartime(&zero, nil, nil, scalars, points, &scratch, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
		})
	}
}
