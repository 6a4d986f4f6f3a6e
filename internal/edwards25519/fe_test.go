package edwards25519

import (
	"math/big"
	"math/rand"
	"testing"
)

// feP is the field order 2^255 - 19.
var feP = func() *big.Int {
	p := new(big.Int).Lsh(big.NewInt(1), 255)
	return p.Sub(p, big.NewInt(19))
}()

func feToBig(v *Element) *big.Int {
	b := v.Bytes()
	return bigFromLE(b[:])
}

func bigFromLE(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i, x := range b {
		be[len(b)-1-i] = x
	}
	return new(big.Int).SetBytes(be)
}

func bigToLE32(x *big.Int) []byte {
	be := x.Bytes()
	le := make([]byte, 32)
	for i, b := range be {
		le[len(be)-1-i] = b
	}
	return le
}

func feFromBig(t testing.TB, x *big.Int) *Element {
	t.Helper()
	var v Element
	if !v.SetBytes(bigToLE32(new(big.Int).Mod(x, feP))) {
		t.Fatalf("SetBytes rejected canonical %v", x)
	}
	return &v
}

func randBig(rng *rand.Rand) *big.Int {
	b := make([]byte, 32)
	rng.Read(b)
	return new(big.Int).Mod(new(big.Int).SetBytes(b), feP)
}

// TestElementArithmeticMatchesBig cross-checks every operation against
// math/big over random canonical elements, including the boundary
// values 0, 1, 2, p-1 and p-2.
func TestElementArithmeticMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(feP, big.NewInt(1)),
		new(big.Int).Sub(feP, big.NewInt(2)),
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, randBig(rng))
	}
	for i, xa := range cases {
		xb := cases[(i*7+3)%len(cases)]
		var a, b [32]byte
		copy(a[:], bigToLE32(xa))
		copy(b[:], bigToLE32(xb))
		checkRawArithmetic(t, &a, &b)
	}
}

// feFromRaw loads 32 little-endian bytes straight into the limbs, so a
// test reaches every value below 2^256: the ones from p up, which
// SetBytes rejects, are ones arithmetic leaves between operations.
func feFromRaw(b *[32]byte) *Element {
	return &Element{getUint64LE(b[0:]), getUint64LE(b[8:]), getUint64LE(b[16:]), getUint64LE(b[24:])}
}

// feRawEdges returns the limb patterns at the edges of the fold paths:
// the carry and borrow out of 2^256 in Add and Sub, the top-limb fold
// in Mul, and the bit-255 fold and conditional subtraction in reduce.
func feRawEdges() [][32]byte {
	two := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	add := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }
	vals := []*big.Int{
		big.NewInt(0), add(feP, -1), feP, add(feP, 1),
		add(two(255), -1), two(255), add(two(255), 18),
		new(big.Int).Lsh(feP, 1), add(two(256), -38), add(two(256), -1),
	}
	for i := uint(0); i < 4; i++ {
		vals = append(vals, new(big.Int).Lsh(add(two(64), -1), 64*i))
	}
	out := make([][32]byte, len(vals))
	for i, x := range vals {
		copy(out[i][:], bigToLE32(x))
	}
	return out
}

// checkRawArithmetic checks every Element operation on the raw limb
// values a and b against math/big, reduced mod p.
func checkRawArithmetic(t testing.TB, a, b *[32]byte) {
	t.Helper()
	xa, xb := bigFromLE(a[:]), bigFromLE(b[:])
	ea, eb := feFromRaw(a), feFromRaw(b)
	mod := func(x *big.Int) *big.Int { return new(big.Int).Mod(x, feP) }
	ra, rb := mod(xa), mod(xb)
	check := func(op string, got *Element, want *big.Int) {
		t.Helper()
		if g := feToBig(got); g.Cmp(mod(want)) != 0 {
			t.Fatalf("%s(%#x, %#x) = %#x, want %#x", op, xa, xb, g, want)
		}
	}
	var v Element
	check("Bytes", ea, xa)
	check("Add", v.Add(ea, eb), new(big.Int).Add(xa, xb))
	check("Sub", v.Sub(ea, eb), new(big.Int).Sub(xa, xb))
	check("Negate", v.Negate(ea), new(big.Int).Neg(xa))
	check("Mul", v.Mul(ea, eb), new(big.Int).Mul(xa, xb))
	check("Square", v.Square(ea), new(big.Int).Mul(xa, xa))
	inv := new(big.Int).ModInverse(ra, feP)
	if inv == nil {
		inv = new(big.Int) // Invert(0) = 0
	}
	check("Invert", v.Invert(ea), inv)
	if got, want := ea.Equal(eb), ra.Cmp(rb) == 0; got != want {
		t.Fatalf("Equal(%#x, %#x) = %v, want %v", xa, xb, got, want)
	}
	if got, want := ea.IsZero(), ra.Sign() == 0; got != want {
		t.Fatalf("IsZero(%#x) = %v, want %v", xa, got, want)
	}
	if got, want := ea.IsNegative(), ra.Bit(0) == 1; got != want {
		t.Fatalf("IsNegative(%#x) = %v, want %v", xa, got, want)
	}
	if got, want := v.SetBytes(a[:]), xa.Cmp(feP) < 0; got != want {
		t.Fatalf("SetBytes(%#x) = %v, want %v", xa, got, want)
	}
}

// TestElementRawLimbs runs every pair of edge patterns, in both orders
// and against itself, through checkRawArithmetic.
func TestElementRawLimbs(t *testing.T) {
	edges := feRawEdges()
	for i := range edges {
		for j := range edges {
			checkRawArithmetic(t, &edges[i], &edges[j])
		}
	}
}

// FuzzElementArithmetic loads two inputs, zero-padded or cut to 32
// bytes, as full 256-bit limb values and checks every operation.
func FuzzElementArithmetic(f *testing.F) {
	edges := feRawEdges()
	for i := range edges {
		f.Add(edges[i][:], edges[i][:])
		f.Add(edges[i][:], edges[len(edges)-1-i][:])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ra, rb [32]byte
		copy(ra[:], a)
		copy(rb[:], b)
		checkRawArithmetic(t, &ra, &rb)
	})
}

// TestElementSetBytesStrict pins the canonical-only decoding contract.
func TestElementSetBytesStrict(t *testing.T) {
	var v Element
	// p itself and p+1 must be rejected.
	for _, d := range []int64{0, 1, 18} {
		enc := bigToLE32(new(big.Int).Add(feP, big.NewInt(d)))
		if v.SetBytes(enc) {
			t.Fatalf("SetBytes accepted p+%d", d)
		}
	}
	// p-1 is canonical.
	if !v.SetBytes(bigToLE32(new(big.Int).Sub(feP, big.NewInt(1)))) {
		t.Fatal("SetBytes rejected p-1")
	}
	// The 256th bit is never canonical.
	enc := bigToLE32(big.NewInt(1))
	enc[31] |= 0x80
	if v.SetBytes(enc) {
		t.Fatal("SetBytes accepted a set high bit")
	}
	if v.SetBytes(make([]byte, 31)) {
		t.Fatal("SetBytes accepted a short encoding")
	}
}

// TestElementBytesRoundTrip checks Bytes∘SetBytes over random values.
func TestElementBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x := randBig(rng)
		v := feFromBig(t, x)
		got := v.Bytes()
		var u Element
		if !u.SetBytes(got[:]) {
			t.Fatalf("round trip rejected %v", x)
		}
		if !u.Equal(v) {
			t.Fatalf("round trip changed %v", x)
		}
	}
}

// TestSqrtRatio checks the square-root core against big.Int sqrt.
func TestSqrtRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	squares, nonSquares := 0, 0
	for i := 0; i < 100; i++ {
		xu, xw := randBig(rng), randBig(rng)
		if xw.Sign() == 0 {
			continue
		}
		u, w := feFromBig(t, xu), feFromBig(t, xw)
		var r Element
		ok := r.SqrtRatio(u, w)
		ratio := new(big.Int).Mul(xu, new(big.Int).ModInverse(xw, feP))
		ratio.Mod(ratio, feP)
		want := new(big.Int).ModSqrt(ratio, feP)
		if (want != nil) != ok {
			t.Fatalf("SqrtRatio(%v/%v) square = %v, want %v", xu, xw, ok, want != nil)
		}
		if ok {
			squares++
			got := feToBig(&r)
			neg := new(big.Int).Mod(new(big.Int).Neg(want), feP)
			if got.Cmp(want) != 0 && got.Cmp(neg) != 0 {
				t.Fatalf("SqrtRatio(%v/%v) = %v, want ±%v", xu, xw, got, want)
			}
			if got.Bit(0) != 0 {
				t.Fatalf("SqrtRatio returned a negative root %v", got)
			}
		} else {
			nonSquares++
		}
	}
	if squares == 0 || nonSquares == 0 {
		t.Fatalf("degenerate sample: %d squares, %d non-squares", squares, nonSquares)
	}
}

func BenchmarkFieldMul(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := feFromBig(b, randBig(rng))
	y := feFromBig(b, randBig(rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(x, y)
	}
}

// BenchmarkFieldMul4 issues four independent products per op, the
// shape of a point addition, where BenchmarkFieldMul's chain makes each
// product wait for the last.
func BenchmarkFieldMul4(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var x [4]Element
	for i := range x {
		x[i] = *feFromBig(b, randBig(rng))
	}
	y := feFromBig(b, randBig(rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0].Mul(&x[0], y)
		x[1].Mul(&x[1], y)
		x[2].Mul(&x[2], y)
		x[3].Mul(&x[3], y)
	}
}

func BenchmarkFieldSquare(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := feFromBig(b, randBig(rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Square(x)
	}
}

func BenchmarkFieldInvert(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := feFromBig(b, randBig(rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Invert(x)
	}
}
