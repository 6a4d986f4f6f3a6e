package edwards25519

import (
	"math/big"
	"math/rand"
	"testing"
)

// scL is the group order as a big.Int.
var scL = func() *big.Int {
	l, _ := new(big.Int).SetString(
		"7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	return l
}()

func scToBig(s *Scalar) *big.Int {
	b := s.Bytes()
	return bigFromLE(b[:])
}

func scFromBig(t testing.TB, x *big.Int) *Scalar {
	t.Helper()
	var s Scalar
	if !s.SetCanonicalBytes(bigToLE32(new(big.Int).Mod(x, scL))) {
		t.Fatalf("SetCanonicalBytes rejected canonical %v", x)
	}
	return &s
}

func TestScalarSetCanonicalBytesStrict(t *testing.T) {
	var s Scalar
	if s.SetCanonicalBytes(bigToLE32(scL)) {
		t.Fatal("SetCanonicalBytes accepted l")
	}
	if s.SetCanonicalBytes(bigToLE32(new(big.Int).Add(scL, big.NewInt(1)))) {
		t.Fatal("SetCanonicalBytes accepted l+1")
	}
	if !s.SetCanonicalBytes(bigToLE32(new(big.Int).Sub(scL, big.NewInt(1)))) {
		t.Fatal("SetCanonicalBytes rejected l-1")
	}
	if s.SetCanonicalBytes(make([]byte, 31)) {
		t.Fatal("SetCanonicalBytes accepted a short encoding")
	}
	// The all-ones encoding is far above l.
	ones := make([]byte, 32)
	for i := range ones {
		ones[i] = 0xff
	}
	if s.SetCanonicalBytes(ones) {
		t.Fatal("SetCanonicalBytes accepted 2^256-1")
	}
}

func TestScalarArithmeticMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(scL, big.NewInt(1)),
		new(big.Int).Sub(scL, big.NewInt(2)),
	}
	for i := 0; i < 200; i++ {
		b := make([]byte, 32)
		rng.Read(b)
		cases = append(cases, new(big.Int).Mod(new(big.Int).SetBytes(b), scL))
	}
	for i, xa := range cases {
		xb := cases[(i*5+2)%len(cases)]
		a, b := scFromBig(t, xa), scFromBig(t, xb)
		var got Scalar
		got.Add(a, b)
		want := new(big.Int).Mod(new(big.Int).Add(xa, xb), scL)
		if scToBig(&got).Cmp(want) != 0 {
			t.Fatalf("add(%v, %v) = %v, want %v", xa, xb, scToBig(&got), want)
		}
		got.Mul(a, b)
		want = new(big.Int).Mod(new(big.Int).Mul(xa, xb), scL)
		if scToBig(&got).Cmp(want) != 0 {
			t.Fatalf("mul(%v, %v) = %v, want %v", xa, xb, scToBig(&got), want)
		}
	}
}

func TestScalarSetUniformBytesMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		wide := make([]byte, 64)
		rng.Read(wide)
		if i == 0 {
			for j := range wide {
				wide[j] = 0xff // worst-case magnitude
			}
		}
		if i == 1 {
			for j := range wide {
				wide[j] = 0
			}
		}
		var s Scalar
		s.SetUniformBytes(wide)
		want := new(big.Int).Mod(bigFromLE(wide), scL)
		if scToBig(&s).Cmp(want) != 0 {
			t.Fatalf("SetUniformBytes(%x) = %v, want %v", wide, scToBig(&s), want)
		}
	}
}

func TestScalarSetShortBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		n := rng.Intn(17)
		b := make([]byte, n)
		rng.Read(b)
		var s Scalar
		s.SetShortBytes(b)
		if scToBig(&s).Cmp(bigFromLE(b)) != 0 {
			t.Fatalf("SetShortBytes(%x) = %v", b, scToBig(&s))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetShortBytes accepted 17 bytes")
		}
	}()
	var s Scalar
	s.SetShortBytes(make([]byte, 17))
}

// checkRadix256 fails t unless s's radix-2^8 digits reconstruct x; a
// digit that overflowed int8 would not.
func checkRadix256(t *testing.T, s *Scalar, x *big.Int) {
	t.Helper()
	var e [32]int8
	s.signedRadix256(&e)
	acc := new(big.Int)
	for j := 31; j >= 0; j-- {
		acc.Lsh(acc, 8)
		acc.Add(acc, big.NewInt(int64(e[j])))
	}
	if acc.Cmp(x) != 0 {
		t.Fatalf("signedRadix256 reconstructed %v, want %v", acc, x)
	}
}

// TestSignedDigits checks that every digit decomposition reconstructs
// the scalar.
func TestSignedDigits(t *testing.T) {
	for _, x := range edgeScalars() {
		checkRadix256(t, scFromBig(t, x), x)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		b := make([]byte, 32)
		rng.Read(b)
		x := new(big.Int).Mod(new(big.Int).SetBytes(b), scL)
		s := scFromBig(t, x)
		checkRadix256(t, s, x)

		var e [64]int8
		s.signedRadix16(&e)
		acc := new(big.Int)
		for j := 63; j >= 0; j-- {
			acc.Lsh(acc, 4)
			acc.Add(acc, big.NewInt(int64(e[j])))
			if e[j] < -8 || e[j] > 8 {
				t.Fatalf("radix-16 digit %d out of range: %d", j, e[j])
			}
		}
		if acc.Cmp(x) != 0 {
			t.Fatalf("signedRadix16 reconstructed %v, want %v", acc, x)
		}

		// 128-bit scalars through the radix-2^6 path.
		var z Scalar
		zb := make([]byte, 16)
		rng.Read(zb)
		z.SetShortBytes(zb)
		var d [msmDigits128]int8
		z.signedDigits6(d[:])
		acc.SetInt64(0)
		for j := msmDigits128 - 1; j >= 0; j-- {
			acc.Lsh(acc, msmWindow)
			acc.Add(acc, big.NewInt(int64(d[j])))
			if d[j] < -msmBuckets || d[j] >= msmBuckets {
				t.Fatalf("radix-64 digit %d out of range: %d", j, d[j])
			}
		}
		if acc.Cmp(bigFromLE(zb)) != 0 {
			t.Fatalf("signedDigits6 reconstructed %v, want %v", acc, bigFromLE(zb))
		}
	}
}
