package cryptoutil

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"cres/internal/edwards25519"
	"cres/internal/harness"
)

// batchCase is one signature for the equivalence tests, possibly
// tampered after signing.
type batchCase struct {
	pub PublicKey
	msg []byte
	sig []byte
}

func makeBatch(t testing.TB, rng *rand.Rand, n int, keys int) []batchCase {
	t.Helper()
	pairs := make([]*KeyPair, keys)
	for i := range pairs {
		seed := make([]byte, 32)
		rng.Read(seed)
		kp, err := KeyPairFromSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = kp
	}
	out := make([]batchCase, n)
	for i := range out {
		kp := pairs[rng.Intn(keys)]
		msg := make([]byte, 16+rng.Intn(150))
		rng.Read(msg)
		out[i] = batchCase{pub: kp.Public(), msg: msg, sig: kp.Sign(msg)}
	}
	return out
}

// runBoth returns the batch verdicts and the unbatched per-signature
// verdicts for the same inputs, using a fixed coefficient stream.
func runBoth(cases []batchCase, seed string) (batch, single []bool) {
	single = make([]bool, len(cases))
	for i, c := range cases {
		single[i] = c.pub.Verify(c.msg, c.sig)
	}
	return flush(cases, seed, 0), single
}

// flush returns the batch verdicts for cases under the coefficient
// stream seeded with seed, from a verifier that splits its curve work
// over a crew of helpers helpers.
func flush(cases []batchCase, seed string, helpers int) []bool {
	crew := harness.NewCrew(helpers)
	defer crew.Stop()
	bv := NewBatchVerifier(NewDeterministicEntropy([]byte(seed)))
	bv.SetRunner(crew)
	for _, c := range cases {
		bv.Add(c.pub, c.msg, c.sig)
	}
	return bv.Flush()
}

func assertParity(t *testing.T, cases []batchCase, label string) {
	t.Helper()
	batch, single := runBoth(cases, label)
	if len(batch) != len(single) {
		t.Fatalf("%s: %d batch verdicts for %d signatures", label, len(batch), len(single))
	}
	for i := range batch {
		if batch[i] != single[i] {
			t.Fatalf("%s: signature %d: batch says %v, ed25519.Verify says %v", label, i, batch[i], single[i])
		}
	}
}

// TestBatchVerifierMatchesSingle drives the verdict-parity property
// over the tamper patterns the issue calls out: empty batch, single
// element, one forged signature, all forged, flipped pubkey — plus
// truncated inputs and non-canonical scalars.
func TestBatchVerifierMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(40))

	// Empty batch: Flush returns no verdicts and no error.
	bv := NewBatchVerifier(NewDeterministicEntropy([]byte("empty")))
	if got := bv.Flush(); len(got) != 0 {
		t.Fatalf("empty batch produced %d verdicts", len(got))
	}

	assertParity(t, makeBatch(t, rng, 1, 1), "single valid")
	assertParity(t, makeBatch(t, rng, 64, 1), "all valid, one key")
	assertParity(t, makeBatch(t, rng, 64, 5), "all valid, five keys")

	cases := makeBatch(t, rng, 64, 3)
	cases[17].sig[3] ^= 0x40
	assertParity(t, cases, "one forged signature")

	cases = makeBatch(t, rng, 32, 2)
	for i := range cases {
		cases[i].sig[rng.Intn(64)] ^= 1 << uint(rng.Intn(8))
	}
	assertParity(t, cases, "all forged")

	cases = makeBatch(t, rng, 16, 2)
	cases[5].pub = append([]byte(nil), cases[5].pub...)
	cases[5].pub[0] ^= 0x02
	assertParity(t, cases, "flipped pubkey")

	cases = makeBatch(t, rng, 8, 1)
	cases[2].sig = cases[2].sig[:40]
	assertParity(t, cases, "truncated signature")

	cases = makeBatch(t, rng, 8, 1)
	cases[6].pub = cases[6].pub[:30]
	assertParity(t, cases, "truncated pubkey")

	// Non-canonical s: set the top bits so s >= l.
	cases = makeBatch(t, rng, 8, 1)
	for i := 32; i < 64; i++ {
		cases[3].sig[i] = 0xff
	}
	assertParity(t, cases, "non-canonical s")

	// Message tampering after signing.
	cases = makeBatch(t, rng, 16, 2)
	cases[9].msg[0] ^= 1
	assertParity(t, cases, "tampered message")
}

// TestBatchVerifierSplitMatchesSerial forges entries of a three-key
// batch, so that the flush bisects down to single entries, and demands
// that a verifier splitting its curve work over one to three helpers
// returns exactly the verdicts of the serial one.
func TestBatchVerifierSplitMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	cases := makeBatch(t, rng, 96, 3)
	for _, i := range []int{5, 17, 40, 41, 95} {
		cases[i].sig[9] ^= 0x10
	}
	serial, single := runBoth(cases, "split")
	for i := range serial {
		if serial[i] != single[i] {
			t.Fatalf("signature %d: batch says %v, ed25519.Verify says %v", i, serial[i], single[i])
		}
	}
	for helpers := 1; helpers <= 3; helpers++ {
		got := flush(cases, "split", helpers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("%d helpers: signature %d: split flush says %v, serial flush %v", helpers, i, got[i], serial[i])
			}
		}
	}
}

// TestBatchVerifierRandomTampering is the randomized sweep: every
// round tampers a random subset of entries in random ways and demands
// verdict parity.
func TestBatchVerifierRandomTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(40)
		cases := makeBatch(t, rng, n, 1+rng.Intn(3))
		for i := range cases {
			switch rng.Intn(5) {
			case 0: // leave valid
			case 1:
				cases[i].sig[rng.Intn(64)] ^= 1 << uint(rng.Intn(8))
			case 2:
				cases[i].msg[rng.Intn(len(cases[i].msg))] ^= 0x80
			case 3:
				cases[i].pub = append([]byte(nil), cases[i].pub...)
				cases[i].pub[rng.Intn(32)] ^= 1
			case 4:
				cases[i].sig = cases[i].sig[:rng.Intn(64)]
			}
		}
		assertParity(t, cases, fmt.Sprintf("random round %d", round))
	}
}

// TestBatchVerifierHinted checks the hinted path end to end: correct
// hints verify through the combination, corrupted hints fall back and
// still yield the stdlib verdict.
func TestBatchVerifierHinted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seed := make([]byte, 32)
	rng.Read(seed)
	var signer VartimeSigner
	signer.Init(seed)

	bv := NewBatchVerifier(NewDeterministicEntropy([]byte("hinted")))
	var want []bool
	for i := 0; i < 32; i++ {
		msg := make([]byte, 100)
		rng.Read(msg)
		sig, hint := signer.Sign(msg)
		switch i % 3 {
		case 0: // honest hint
			bv.AddHinted(signer.Public(), msg, sig[:], &hint)
			want = append(want, true)
		case 1: // corrupted hint over a valid signature
			bad := hint
			bad.x = hint.y // wrong coordinate entirely
			bv.AddHinted(signer.Public(), msg, sig[:], &bad)
			want = append(want, true) // fallback must still verify it
		case 2: // honest hint over a forged signature
			sig[7] ^= 1
			bv.AddHinted(signer.Public(), msg, sig[:], &hint)
			want = append(want, false)
		}
	}
	got := bv.Flush()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hinted entry %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBatchVerifierDeterministic re-runs the same Add sequence and
// demands identical verdicts: the coefficient stream is the only
// randomness, and it is seeded.
func TestBatchVerifierDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := makeBatch(t, rng, 40, 2)
	cases[11].sig[0] ^= 1
	a, _ := runBoth(cases, "det")
	first := append([]bool(nil), a...)
	b, _ := runBoth(cases, "det")
	for i := range first {
		if first[i] != b[i] {
			t.Fatalf("verdict %d changed between identical runs", i)
		}
	}
}

// TestBatchVerifierReuse checks Reset + repeated Flush on one pooled
// verifier, as the fleet scratch uses it.
func TestBatchVerifierReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bv := NewBatchVerifier(NewDeterministicEntropy([]byte("reuse-0")))
	for epoch := 0; epoch < 3; epoch++ {
		bv.Reset(NewDeterministicEntropy([]byte(fmt.Sprintf("reuse-%d", epoch))))
		cases := makeBatch(t, rng, 16, 1)
		bad := epoch % 2
		cases[bad].sig[10] ^= 4
		for _, c := range cases {
			bv.Add(c.pub, c.msg, c.sig)
		}
		got := bv.Flush()
		for i, c := range cases {
			if want := c.pub.Verify(c.msg, c.sig); got[i] != want {
				t.Fatalf("epoch %d entry %d: got %v, want %v", epoch, i, got[i], want)
			}
		}
	}
}

// failingReader serves the first left bytes of r and then fails.
type failingReader struct {
	r    io.Reader
	left int
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.left == 0 {
		return 0, errors.New("coefficient source exhausted")
	}
	if len(p) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= n
	return n, err
}

// addToS adds delta to a signature's s half, mod l.
func addToS(t *testing.T, sig []byte, delta string) {
	t.Helper()
	var s, d edwards25519.Scalar
	db, err := hex.DecodeString(delta)
	if err != nil || !s.SetCanonicalBytes(sig[32:]) || !d.SetCanonicalBytes(db) {
		t.Fatal("bad scalar")
	}
	s.Add(&s, &d)
	enc := s.Bytes()
	copy(sig[32:], enc[:])
}

// TestBatchVerifierFailingCoefficients gives the verifier a coefficient
// reader that fails after k bytes, then two forged signatures whose s
// defects (+1 and -1) cancel whenever they share a coefficient. Every
// entry whose draw fails must still get ed25519.Verify's verdict.
func TestBatchVerifierFailingCoefficients(t *testing.T) {
	const (
		plusOne  = "0100000000000000000000000000000000000000000000000000000000000000"
		minusOne = "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010" // l - 1
	)
	rng := rand.New(rand.NewSource(48))
	for _, k := range []int{0, 7, 16, 40, 64} {
		cases := makeBatch(t, rng, 8, 1)
		addToS(t, cases[5].sig, plusOne)
		addToS(t, cases[6].sig, minusOne)
		bv := NewBatchVerifier(&failingReader{r: NewDeterministicEntropy([]byte("failing")), left: k})
		for _, c := range cases {
			bv.Add(c.pub, c.msg, c.sig)
		}
		got := bv.Flush()
		for i, c := range cases {
			if want := c.pub.Verify(c.msg, c.sig); got[i] != want {
				t.Fatalf("reader failing after %d bytes: entry %d: batch says %v, ed25519.Verify says %v", k, i, got[i], want)
			}
		}
	}
}

// TestVartimeSignerMatchesKeyPair pins the fast signer against the
// stdlib-backed KeyPair for identical bytes, one message at a time and
// in batches of 1..4 through one re-initialised signer, whose hints
// must equal Sign's.
func TestVartimeSignerMatchesKeyPair(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var vs VartimeSigner
	for i := 0; i < 20; i++ {
		seed := make([]byte, 32)
		rng.Read(seed)
		kp, err := KeyPairFromSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		vs.Init(seed)
		if !vs.Public().Equal(kp.Public()) {
			t.Fatalf("seed %x: public key mismatch", seed)
		}
		msgs := make([][]byte, i%4+1)
		for j := range msgs {
			msgs[j] = make([]byte, 132)
			rng.Read(msgs[j])
		}
		sigs := make([][64]byte, len(msgs))
		hints := make([]RHint, len(msgs))
		vs.SignBatch(msgs, sigs, hints)
		for j, msg := range msgs {
			want := kp.Sign(msg)
			sig, hint := vs.Sign(msg)
			if string(sig[:]) != string(want) || string(sigs[j][:]) != string(want) {
				t.Fatalf("seed %x message %d: signature mismatch\n  Sign %x\nbatch %x\n want %x", seed, j, sig, sigs[j], want)
			}
			if hints[j] != hint {
				t.Fatalf("seed %x message %d: SignBatch hint differs from Sign's", seed, j)
			}
		}
	}
}

// FuzzBatchBisect fuzzes the bisect fallback: arbitrary tamper masks
// over a fixed batch must never break verdict parity, and a flush
// split over one to three helpers must return the serial verdicts.
func FuzzBatchBisect(f *testing.F) {
	f.Add(uint64(0), []byte{0})
	f.Add(uint64(3), []byte{0xff, 0x01})
	f.Add(uint64(0xdeadbeef), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, caseSeed uint64, tamper []byte) {
		if len(tamper) > 64 {
			tamper = tamper[:64]
		}
		rng := rand.New(rand.NewSource(int64(caseSeed)))
		n := 1 + len(tamper)%17
		cases := makeBatch(t, rng, n, 1+int(caseSeed%3))
		for i, tb := range tamper {
			c := &cases[i%n]
			switch tb % 4 {
			case 1:
				c.sig[int(tb)%64] ^= 1 << (tb % 8)
			case 2:
				c.msg[int(tb)%len(c.msg)] ^= tb
			case 3:
				c.pub = append([]byte(nil), c.pub...)
				c.pub[int(tb)%32] ^= tb | 1
			}
		}
		batch, single := runBoth(cases, fmt.Sprintf("fuzz-%d", caseSeed))
		helpers := 1 + int(caseSeed%3)
		split := flush(cases, fmt.Sprintf("fuzz-%d", caseSeed), helpers)
		for i := range batch {
			if batch[i] != single[i] {
				t.Fatalf("entry %d: batch %v, single %v", i, batch[i], single[i])
			}
			if split[i] != batch[i] {
				t.Fatalf("entry %d: split over %d helpers %v, serial %v", i, helpers, split[i], batch[i])
			}
		}
	})
}

// BenchmarkBatchVerify measures the amortised per-signature cost at
// the issue's batch sizes, for all-valid, one-bad (bisect), and
// all-bad (degenerate bisect) batches.
func BenchmarkBatchVerify(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	for _, size := range []int{16, 64, 256} {
		cases := makeBatch(b, rng, size, 1)
		for _, mode := range []string{"all-valid", "one-bad", "all-bad"} {
			bad := append([]batchCase(nil), cases...)
			switch mode {
			case "one-bad":
				bad[size/2].sig = append([]byte(nil), bad[size/2].sig...)
				bad[size/2].sig[0] ^= 1
			case "all-bad":
				for i := range bad {
					bad[i].sig = append([]byte(nil), bad[i].sig...)
					bad[i].sig[0] ^= 1
				}
			}
			b.Run(fmt.Sprintf("n=%d/%s", size, mode), func(b *testing.B) {
				bv := NewBatchVerifier(NewDeterministicEntropy([]byte("bench")))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, c := range bad {
						bv.Add(c.pub, c.msg, c.sig)
					}
					bv.Flush()
				}
				b.StopTimer()
				perSig := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(size)
				b.ReportMetric(perSig, "ns/sig")
			})
		}
	}
}

// BenchmarkBatchVerifyHinted is the fleet hot-path shape: hinted R and
// one key per 256-signature epoch, flushed one epoch at a time and as
// a whole 16-epoch shard.
func BenchmarkBatchVerifyHinted(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	const epoch = 256
	for _, size := range []int{epoch, 16 * epoch} {
		signers := make([]VartimeSigner, size/epoch)
		msgs := make([][]byte, size)
		sigs := make([][64]byte, size)
		hints := make([]RHint, size)
		for i := range msgs {
			sg := &signers[i/epoch]
			if i%epoch == 0 {
				seed := make([]byte, 32)
				rng.Read(seed)
				sg.Init(seed)
			}
			msgs[i] = make([]byte, 132)
			rng.Read(msgs[i])
			sigs[i], hints[i] = sg.Sign(msgs[i])
		}
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			bv := NewBatchVerifier(NewDeterministicEntropy([]byte("bench-hinted")))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range msgs {
					bv.AddHinted(signers[j/epoch].Public(), msgs[j], sigs[j][:], &hints[j])
				}
				if got := bv.Flush(); !got[0] {
					b.Fatal("valid batch failed")
				}
			}
			b.StopTimer()
			perSig := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(size)
			b.ReportMetric(perSig, "ns/sig")
		})
	}
}
