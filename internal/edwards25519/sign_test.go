package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"testing"
)

// TestSignerMatchesStdlib pins the vartime signer bit-for-bit against
// crypto/ed25519.Sign, and checks the emitted hint decodes to the
// signature's R.
func TestSignerMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 50; i++ {
		seed := make([]byte, 32)
		rng.Read(seed)
		msg := make([]byte, rng.Intn(200))
		rng.Read(msg)

		priv := ed25519.NewKeyFromSeed(seed)
		want := ed25519.Sign(priv, msg)

		var sg Signer
		sg.Init(seed)
		if pub := sg.PublicKey(); !bytes.Equal(pub[:], priv.Public().(ed25519.PublicKey)) {
			t.Fatalf("seed %x: public key mismatch", seed)
		}
		sig, rx, ry := sg.Sign(msg)
		if !bytes.Equal(sig[:], want) {
			t.Fatalf("seed %x msg %x:\n got %x\nwant %x", seed, msg, sig, want)
		}
		checkHint(t, &sig, &rx, &ry)
	}
}

// checkHint fails t unless (rx, ry) decodes to the signature's R.
func checkHint(t *testing.T, sig *[64]byte, rx, ry *Element) {
	t.Helper()
	var rEnc [32]byte
	copy(rEnc[:], sig[:32])
	var r AffineCached
	if !r.SetHinted(rx, ry, &rEnc) {
		t.Fatalf("hint does not decode to the signature R %x", rEnc)
	}
}

// signBatchMatches signs msgs in one SignBatch call and checks every
// signature against crypto/ed25519.Sign and every hint against the
// one-message Sign's hint and SetHinted.
func signBatchMatches(t *testing.T, seed []byte, msgs [][]byte) {
	t.Helper()
	priv := ed25519.NewKeyFromSeed(seed)
	var sg, one Signer
	sg.Init(seed)
	one.Init(seed)
	sigs := make([][64]byte, len(msgs))
	rx := make([]Element, len(msgs))
	ry := make([]Element, len(msgs))
	sg.SignBatch(msgs, sigs, rx, ry)
	for i, msg := range msgs {
		if want := ed25519.Sign(priv, msg); !bytes.Equal(sigs[i][:], want) {
			t.Fatalf("batch of %d, message %d (%d bytes):\n got %x\nwant %x", len(msgs), i, len(msg), sigs[i], want)
		}
		_, wx, wy := one.Sign(msg)
		if !rx[i].Equal(&wx) || !ry[i].Equal(&wy) {
			t.Fatalf("batch of %d, message %d: hint differs from Sign's", len(msgs), i)
		}
		checkHint(t, &sigs[i], &rx[i], &ry[i])
	}
}

// TestSignBatchMatchesStdlib covers batch sizes around the fleet's
// 256-device epoch, with message lengths 0..200 mixed in each batch,
// and reuses one seed's signer across sizes the way a fleet scratch
// reuses its pooled state.
func TestSignBatchMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 2, 3, 255, 256, 257} {
		seed := make([]byte, 32)
		rng.Read(seed)
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = make([]byte, rng.Intn(201))
			rng.Read(msgs[i])
		}
		msgs[0] = msgs[0][:0]
		signBatchMatches(t, seed, msgs)
	}
}

// TestSignAllocFree gates the pooled signer state: once warm, neither
// call allocates.
func TestSignAllocFree(t *testing.T) {
	var sg Signer
	sg.Init(make([]byte, 32))
	msg := make([]byte, 132)
	msgs := [][]byte{msg, msg, msg, msg}
	sigs := make([][64]byte, len(msgs))
	rx := make([]Element, len(msgs))
	ry := make([]Element, len(msgs))
	sg.SignBatch(msgs, sigs, rx, ry)
	if n := testing.AllocsPerRun(10, func() { sg.Sign(msg) }); n != 0 {
		t.Fatalf("Sign allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(10, func() { sg.SignBatch(msgs, sigs, rx, ry) }); n != 0 {
		t.Fatalf("SignBatch allocates %.1f times per call", n)
	}
}

// FuzzSignBatch holds the batch signer to crypto/ed25519 beyond honest
// random inputs. data is cut into up to 300 messages, each a length
// byte followed by that many bytes (the last one takes what is left);
// any seed length maps onto a 32-byte seed.
func FuzzSignBatch(f *testing.F) {
	f.Add(make([]byte, 32), []byte{0})
	f.Add(bytes.Repeat([]byte{7}, 32), append([]byte{5}, "hello"...))
	f.Fuzz(func(t *testing.T, seed, data []byte) {
		var s [32]byte
		copy(s[:], seed)
		var msgs [][]byte
		for len(data) > 0 && len(msgs) < 300 {
			n := min(int(data[0]), len(data)-1)
			msgs = append(msgs, data[1:1+n])
			data = data[1+n:]
		}
		signBatchMatches(t, s[:], msgs)
	})
}

func BenchmarkSign(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	seed := make([]byte, 32)
	rng.Read(seed)
	msg := make([]byte, 132)
	rng.Read(msg)
	var sg Signer
	sg.Init(seed)
	b.ReportAllocs()
	for b.Loop() {
		sg.Sign(msg)
	}
}

// BenchmarkSignBatch256 signs one fleet epoch (256 quote-sized
// messages) per op and reports the cost per signature.
func BenchmarkSignBatch256(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(33))
	seed := make([]byte, 32)
	rng.Read(seed)
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, 132)
		rng.Read(msgs[i])
	}
	sigs := make([][64]byte, n)
	rx := make([]Element, n)
	ry := make([]Element, n)
	var sg Signer
	sg.Init(seed)
	b.ReportAllocs()
	for b.Loop() {
		sg.SignBatch(msgs, sigs, rx, ry)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
}
