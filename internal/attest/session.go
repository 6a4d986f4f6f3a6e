package attest

import (
	"fmt"

	"cres/internal/cryptoutil"
	"cres/internal/tpm"
)

// Re-attestation sessions: amortizing the asymmetric signature out of
// steady-state attestation.
//
// The first exchange with a device is always a full quote — an ed25519
// signature under the device's provisioned AIK, verified against the
// policy's key material. That signature is the expensive part of the
// protocol on both ends, and it buys something durable: once the
// verifier has checked it, both sides hold a byte string (the
// signature itself) that only the genuine device could have produced
// and that both parties already possess — no extra key-agreement round
// trip needed. Each side independently derives a 32-byte HMAC channel
// key and a public session ID from it.
//
// Subsequent re-attestations (the E14 recovery loop's closed-loop
// re-challenges, periodic fleet churn) then run sign-free on the
// device: the verifier's challenge carries the session ID, and a
// device holding the matching session answers with its current PCR
// state authenticated by an HMAC over the canonical quote body instead
// of a fresh AIK signature. The verifier checks the MAC in constant
// time and applies the same nonce, replay and allowlist policy checks
// as the full path — only the signature check is replaced, and only by
// a check bootstrapped from a signature it already verified.
//
// Sessions are self-healing and fail closed. A device that lost its
// session (reboot, recovery reinstall) just answers with a full signed
// quote, which the verifier always accepts and uses to re-establish
// the session. A MAC mismatch is appraised exactly like a bad
// signature (ErrPolicy wrapping tpm.ErrQuoteInvalid — the identical
// error text), and the verifier drops the session so the next exchange
// demands a full quote again. Sessions are only ever established by a
// VerdictTrusted full quote, so an untrusted device keeps paying for
// signatures and never gains a MAC channel.
//
// The whole mechanism is summary-invisible: message count, virtual
// timing, verdicts and reason strings are identical with sessions on,
// so every committed golden transcript is unchanged. Only the
// SessionHits / SessionAnswers counters reveal it ran.

// sessionLabel namespaces the session key derivation.
const sessionLabel = "attest-session-v1"

// Session is one established re-attestation channel: the HMAC key both
// sides derived from a verified quote signature, plus the public ID
// the verifier advertises in challenges.
type Session struct {
	id  cryptoutil.Digest
	key []byte
}

// newSession derives the session both endpoints agree on from a full
// quote's AIK signature. The ID and key come from independent
// derivation contexts, so advertising the ID on the wire reveals
// nothing about the MAC key.
func newSession(quoteSig []byte) *Session {
	return &Session{
		id:  cryptoutil.Sum(cryptoutil.DeriveKey(quoteSig, sessionLabel, "session id", 32)),
		key: cryptoutil.DeriveKey(quoteSig, sessionLabel, "channel mac", 32),
	}
}

// sessionQuote builds the device-side MAC-authenticated re-attestation
// answer: the current PCR state over selection, in the same Quote shape
// as a full quote but with the AIK signature replaced by an HMAC tag
// over the identical canonical body. Generating it costs two SHA-256
// passes instead of an ed25519 signature.
func sessionQuote(s *Session, t *tpm.TPM, nonce []byte, selection []int) (*tpm.Quote, cryptoutil.Digest, error) {
	values := make([]cryptoutil.Digest, len(selection))
	for i, pcr := range selection {
		v, err := t.PCRValue(pcr)
		if err != nil {
			return nil, cryptoutil.Digest{}, fmt.Errorf("attest: session quote: %w", err)
		}
		values[i] = v
	}
	body := tpm.AppendQuoteBody(nil, nonce, selection, values)
	q := &tpm.Quote{
		Nonce:     append([]byte(nil), nonce...),
		Selection: append([]int(nil), selection...),
		Values:    values,
	}
	return q, cryptoutil.MAC(s.key, body), nil
}

// appraiseSession is the verifier-side counterpart: it authenticates a
// MAC-tagged quote under the device's established session and then
// applies the same non-signature policy checks as AppraiseKey. Shape
// and MAC failures produce exactly the bad-signature verdict
// (ErrPolicy wrapping tpm.ErrQuoteInvalid), so a forged or corrupted
// session quote is indistinguishable in the appraisal record from a
// forged signature.
func (p *Policy) appraiseSession(s *Session, q *tpm.Quote, log []tpm.LogEntry, nonce []byte, tag cryptoutil.Digest) error {
	if err := tpm.VerifyQuoteShape(q, nonce); err != nil {
		return fmt.Errorf("%w: %w", ErrPolicy, err)
	}
	body := tpm.AppendQuoteBody(nil, q.Nonce, q.Selection, q.Values)
	if !cryptoutil.VerifyMAC(s.key, body, tag) {
		return fmt.Errorf("%w: %w", ErrPolicy, tpm.ErrQuoteInvalid)
	}
	return p.appraiseChecks(q, log)
}
