package cryptoutil

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
)

func testKeyPair(t *testing.T, seed byte) *KeyPair {
	t.Helper()
	s := bytes.Repeat([]byte{seed}, 32)
	kp, err := KeyPairFromSeed(s)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestSumDeterministic(t *testing.T) {
	a := Sum([]byte("hello"))
	b := Sum([]byte("hello"))
	if a != b {
		t.Fatal("Sum not deterministic")
	}
	if a == Sum([]byte("world")) {
		t.Fatal("distinct inputs collided")
	}
}

func TestSumAllBoundaries(t *testing.T) {
	// Length prefixing must make ("ab","c") differ from ("a","bc").
	if SumAll([]byte("ab"), []byte("c")) == SumAll([]byte("a"), []byte("bc")) {
		t.Fatal("SumAll boundary ambiguity")
	}
}

func TestDigestString(t *testing.T) {
	d := Sum([]byte("x"))
	if len(d.String()) != 64 {
		t.Fatalf("hex length = %d, want 64", len(d.String()))
	}
	if len(d.Short()) != 8 {
		t.Fatalf("Short length = %d, want 8", len(d.Short()))
	}
	var zero Digest
	if !zero.IsZero() || d.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestExtendDigestOrderMatters(t *testing.T) {
	a, b := Sum([]byte("a")), Sum([]byte("b"))
	var pcr Digest
	ab := ExtendDigest(ExtendDigest(pcr, a), b)
	ba := ExtendDigest(ExtendDigest(pcr, b), a)
	if ab == ba {
		t.Fatal("extend must be order-sensitive")
	}
}

func TestSignVerify(t *testing.T) {
	kp := testKeyPair(t, 1)
	msg := []byte("attest me")
	sig := kp.Sign(msg)
	if !kp.Public().Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if kp.Public().Verify([]byte("other"), sig) {
		t.Fatal("signature over other message accepted")
	}
	sig[0] ^= 1
	if kp.Public().Verify(msg, sig) {
		t.Fatal("corrupted signature accepted")
	}
}

func TestVerifyBadKeyLength(t *testing.T) {
	if PublicKey([]byte("short")).Verify([]byte("m"), make([]byte, 64)) {
		t.Fatal("short key verified")
	}
}

func TestGenerateKeyPairFromEntropy(t *testing.T) {
	e1 := NewDeterministicEntropy([]byte("seed"))
	e2 := NewDeterministicEntropy([]byte("seed"))
	k1, err := GenerateKeyPair(e1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GenerateKeyPair(e2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1.Public(), k2.Public()) {
		t.Fatal("same entropy produced different keys")
	}
}

func TestDeriveKey(t *testing.T) {
	parent := []byte("parent-key-material")
	a := DeriveKey(parent, "seal", "slot0", 32)
	b := DeriveKey(parent, "seal", "slot0", 32)
	if !bytes.Equal(a, b) {
		t.Fatal("derivation not deterministic")
	}
	if bytes.Equal(a, DeriveKey(parent, "seal", "slot1", 32)) {
		t.Fatal("context not separating")
	}
	if bytes.Equal(a, DeriveKey(parent, "sign", "slot0", 32)) {
		t.Fatal("label not separating")
	}
	if got := DeriveKey(parent, "l", "c", 100); len(got) != 100 {
		t.Fatalf("len = %d, want 100", len(got))
	}
	if DeriveKey(parent, "l", "c", 0) != nil {
		t.Fatal("zero length should return nil")
	}
}

func TestMAC(t *testing.T) {
	// RFC 4231, test case 2.
	key := []byte("Jefe")
	msg := []byte("what do ya want for nothing?")
	tag := MAC(key, msg)
	if got := hex.EncodeToString(tag[:]); got != "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" {
		t.Fatalf("MAC = %s", got)
	}
	if MAC([]byte("other"), msg) == tag {
		t.Fatal("key does not change the tag")
	}
	if MAC(key, []byte("tampered")) == tag {
		t.Fatal("message does not change the tag")
	}
}

func TestMonotonicCounter(t *testing.T) {
	var c MonotonicCounter
	if c.Value() != 0 {
		t.Fatal("zero value counter not 0")
	}
	if err := c.Advance(5); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(5); err != nil {
		t.Fatalf("Advance(same) = %v, want nil", err)
	}
	if err := c.Advance(4); !errors.Is(err, ErrCounterRollback) {
		t.Fatalf("Advance(backwards) = %v, want ErrCounterRollback", err)
	}
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestDeterministicEntropyRepeatable(t *testing.T) {
	a := NewDeterministicEntropy([]byte("s"))
	b := NewDeterministicEntropy([]byte("s"))
	bufA, bufB := make([]byte, 100), make([]byte, 100)
	if _, err := a.Read(bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("same seed produced different streams")
	}
	c := NewDeterministicEntropy([]byte("t"))
	bufC := make([]byte, 100)
	if _, err := c.Read(bufC); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA, bufC) {
		t.Fatal("different seeds produced same stream")
	}
}

func TestDeterministicEntropyChunking(t *testing.T) {
	// Reading 100 bytes at once must equal reading them in odd chunks.
	a := NewDeterministicEntropy([]byte("s"))
	whole := make([]byte, 100)
	a.Read(whole)

	b := NewDeterministicEntropy([]byte("s"))
	var parts []byte
	for _, n := range []int{1, 7, 31, 61} {
		buf := make([]byte, n)
		b.Read(buf)
		parts = append(parts, buf...)
	}
	if !bytes.Equal(whole, parts) {
		t.Fatal("chunked reads diverge from whole read")
	}
}

// Property: sign/verify round-trips for arbitrary messages.
func TestPropertySignVerify(t *testing.T) {
	kp := testKeyPair(t, 10)
	f := func(msg []byte) bool {
		sig := kp.Sign(msg)
		return kp.Public().Verify(msg, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: monotonic counter never decreases under any op sequence.
func TestPropertyCounterMonotonic(t *testing.T) {
	f := func(ops []uint8) bool {
		var c MonotonicCounter
		last := c.Value()
		for _, op := range ops {
			_ = c.Advance(uint64(op)) // may fail; must not regress
			if c.Value() < last {
				return false
			}
			last = c.Value()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
