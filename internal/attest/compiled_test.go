package attest

import (
	"bytes"
	"errors"
	"testing"

	"cres/internal/cryptoutil"
	"cres/internal/tpm"
)

// compiledPolicy returns a policy allowing the healthy measurement set.
func compiledPolicy() *Policy {
	return &Policy{
		AllowedMeasurements: map[cryptoutil.Digest]bool{
			mROM: true, mFW: true, mPolicy: true,
		},
	}
}

// TestCompiledAppraisalMatchesFullPath pins the batched entry point's
// contract: for the same boot state and nonce, BatchAppraiser.AppendBody
// yields the bytes tpm.GenerateQuote signs, and BatchAppraiser.Resolve
// reaches the same verdict (and errors.Is class) as the unbatched
// Policy.AppraiseKey on the full Quote.
func TestCompiledAppraisalMatchesFullPath(t *testing.T) {
	policy := compiledPolicy()
	nonce := []byte("nonce-0123456789")

	cases := []struct {
		name    string
		extend  func(tp *tpm.TPM)
		trusted bool
	}{
		{"healthy boot", func(tp *tpm.TPM) {
			tp.Extend(tpm.PCRBootROM, mROM, "boot rom")
			tp.Extend(tpm.PCRFirmware, mFW, "firmware v3")
			tp.Extend(tpm.PCRPolicy, mPolicy, "policy")
		}, true},
		{"implanted boot", func(tp *tpm.TPM) {
			tp.Extend(tpm.PCRBootROM, mROM, "boot rom")
			tp.Extend(tpm.PCRFirmware, mEvil, "???")
			tp.Extend(tpm.PCRPolicy, mPolicy, "policy")
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp, err := tpm.New(cryptoutil.NewDeterministicEntropy([]byte(tc.name)))
			if err != nil {
				t.Fatal(err)
			}
			tc.extend(tp)
			kp, err := cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("aik"), tc.name, "", 32))
			if err != nil {
				t.Fatal(err)
			}

			q, err := tp.GenerateQuote(nonce, PCRSelection)
			if err != nil {
				t.Fatal(err)
			}
			full := policy.AppraiseKey(tp.AIKPublic(), q, tp.EventLog(), nonce)

			compiled, err := policy.CompileAppraisal(tp.EventLog(), PCRSelection, len(nonce))
			if err != nil {
				t.Fatal(err)
			}
			batch := compiled.Batch()

			// Device side: the spliced body AppendBody hands out, after
			// dst's bytes, is the canonical encoding of the full Quote, so
			// a signature over it is the full quote's signature.
			wantBody := tpm.AppendQuoteBody(nil, q.Nonce, q.Selection, q.Values)
			body, err := batch.AppendBody([]byte("dst"), nonce)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, append([]byte("dst"), wantBody...)) {
				t.Fatal("AppendBody differs from the full quote body")
			}
			body = body[len("dst"):]
			sig := kp.Sign(body)
			if !bytes.Equal(sig, kp.Sign(wantBody)) {
				t.Fatal("batched signature differs from the full quote-body signature")
			}

			// Verifier side: same verdict class as the unbatched path.
			got := batch.Resolve(kp.Public().Verify(body, sig))
			if (got == nil) != tc.trusted || (full == nil) != tc.trusted {
				t.Fatalf("verdicts diverge: batched=%v full=%v want trusted=%v", got, full, tc.trusted)
			}
			if !tc.trusted {
				if !errors.Is(got, ErrPolicy) || !errors.Is(full, ErrPolicy) {
					t.Fatalf("untrusted verdicts must wrap ErrPolicy: batched=%v full=%v", got, full)
				}
				if got.Error() != full.Error() {
					t.Fatalf("verdict text diverges:\nbatched: %v\nfull:    %v", got, full)
				}
			}

			// A corrupted signature must fail the same way the full path's
			// signature check does.
			bad := append([]byte(nil), sig...)
			bad[0] ^= 0xff
			if err := batch.Resolve(kp.Public().Verify(body, bad)); !errors.Is(err, ErrPolicy) || !errors.Is(err, tpm.ErrQuoteInvalid) {
				t.Fatalf("bad signature verdict = %v", err)
			}
		})
	}
}

// TestCompileAppraisalRejectsBadInput covers the compile-time error
// paths: they are configuration errors, never verdicts.
func TestCompileAppraisalRejectsBadInput(t *testing.T) {
	policy := compiledPolicy()
	if _, err := policy.CompileAppraisal(nil, PCRSelection, 0); err == nil {
		t.Fatal("zero nonce length accepted")
	}
	if _, err := policy.CompileAppraisal([]tpm.LogEntry{{PCR: -1, Measurement: mROM}}, PCRSelection, 16); err == nil {
		t.Fatal("malformed log accepted")
	}
	if _, err := policy.CompileAppraisal(nil, []int{tpm.NumPCRs + 3}, 16); err == nil {
		t.Fatal("out-of-range selection accepted")
	}
}

// TestCompiledAppraisalMissingRequiredPCR pins that a selection not
// covering the policy's required PCRs compiles to a deterministic
// ErrPolicy verdict, like the unbatched path.
func TestCompiledAppraisalMissingRequiredPCR(t *testing.T) {
	policy := compiledPolicy()
	compiled, err := policy.CompileAppraisal(nil, []int{tpm.PCRBootROM}, 16)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		t.Fatal(err)
	}
	batch := compiled.Batch()
	nonce := bytes.Repeat([]byte{1}, 16)
	body, err := batch.AppendBody(nil, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.Resolve(kp.Public().Verify(body, kp.Sign(body))); !errors.Is(err, ErrPolicy) {
		t.Fatalf("verdict = %v, want missing-PCR policy error", err)
	}
	// Wrong-length nonces are caller bugs, reported loudly.
	if _, err := batch.AppendBody(nil, []byte("short")); err == nil {
		t.Fatal("short nonce accepted by AppendBody")
	}
	if _, _, err := batch.SignFast(new(cryptoutil.VartimeSigner), []byte("short")); err == nil {
		t.Fatal("short nonce accepted by SignFast")
	}
}
