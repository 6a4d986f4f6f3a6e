package attest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"cres/internal/cryptoutil"
	"cres/internal/m2m"
	"cres/internal/sim"
	"cres/internal/tpm"
)

// Message kinds on the wire.
const (
	MsgChallenge = "attest.challenge"
	MsgQuote     = "attest.quote"
)

// PCRSelection is the default set of registers a verifier challenges
// for, and the set every quote must cover to pass appraisal.
var PCRSelection = []int{tpm.PCRBootROM, tpm.PCRFirmware, tpm.PCRPolicy}

// challengePayload is the verifier -> device request. A non-nil
// SessionID invites the device to answer under that established
// re-attestation session (see session.go); devices that don't hold the
// session ignore the invitation and send a full signed quote.
type challengePayload struct {
	Nonce     []byte
	Selection []int
	SessionID []byte
}

// quotePayload is the device -> verifier response. A non-nil MAC marks
// a session quote: Quote.Signature is empty and MAC authenticates the
// canonical quote body under the session channel key instead.
type quotePayload struct {
	Quote tpm.Quote
	Log   []tpm.LogEntry
	MAC   []byte
}

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("attest: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func decode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("attest: decode: %w", err)
	}
	return nil
}

// Attester is the device side: it answers challenges with quotes.
type Attester struct {
	tpm *tpm.TPM
	ep  *m2m.Endpoint

	sessions        map[string]*Session // per-verifier re-attestation sessions
	sessionAnswered uint64
}

// NewAttester wires a device TPM to its network endpoint. It registers
// the challenge handler.
func NewAttester(t *tpm.TPM, ep *m2m.Endpoint) *Attester {
	a := &Attester{tpm: t, ep: ep, sessions: make(map[string]*Session)}
	ep.Handle(MsgChallenge, a.onChallenge)
	return a
}

// SessionAnswers returns how many challenges were answered sign-free
// under an established re-attestation session.
func (a *Attester) SessionAnswers() uint64 { return a.sessionAnswered }

func (a *Attester) onChallenge(msg m2m.Message) {
	var ch challengePayload
	if err := decode(msg.Payload, &ch); err != nil {
		return
	}
	sel := ch.Selection
	if len(sel) == 0 {
		sel = PCRSelection
	}
	// Session fast path: if the verifier invited re-attestation under a
	// session this device holds, answer with a MAC-authenticated quote
	// and skip the AIK signature entirely.
	if s := a.sessions[msg.From]; s != nil && ch.SessionID != nil && bytes.Equal(ch.SessionID, s.id[:]) {
		q, tag, err := sessionQuote(s, a.tpm, ch.Nonce, sel)
		if err != nil {
			return
		}
		payload, err := encode(quotePayload{Quote: *q, Log: a.tpm.EventLog(), MAC: tag[:]})
		if err != nil {
			return
		}
		if err := a.ep.Send(msg.From, MsgQuote, payload); err != nil {
			return
		}
		a.sessionAnswered++
		return
	}
	q, err := a.tpm.GenerateQuote(ch.Nonce, sel)
	if err != nil {
		return
	}
	payload, err := encode(quotePayload{Quote: *q, Log: a.tpm.EventLog()})
	if err != nil {
		return
	}
	if err := a.ep.Send(msg.From, MsgQuote, payload); err != nil {
		return
	}
	// Optimistically establish the session this quote's signature seeds.
	// The verifier only mirrors it after the appraisal comes back
	// trusted, and only a challenge carrying the matching ID activates
	// it, so a rejected quote leaves this entry inert.
	a.sessions[msg.From] = newSession(q.Signature)
}

// Verdict is the outcome of appraising one device.
type Verdict uint8

// Verdicts.
const (
	// VerdictTrusted means the quote verified and all measurements are
	// known good.
	VerdictTrusted Verdict = iota + 1
	// VerdictUntrusted means the appraisal failed (bad signature, log
	// mismatch, unknown measurement, stale nonce).
	VerdictUntrusted
	// VerdictTimeout means the device never answered.
	VerdictTimeout
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictTrusted:
		return "trusted"
	case VerdictUntrusted:
		return "untrusted"
	case VerdictTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Appraisal is the verifier's conclusion about one device.
type Appraisal struct {
	Device  string
	At      sim.VirtualTime
	Verdict Verdict
	Reason  string
}

// Policy is the verifier's appraisal policy.
type Policy struct {
	// AIKs maps device names to their provisioned attestation keys.
	AIKs map[string]cryptoutil.PublicKey
	// AllowedMeasurements is the allowlist of known-good measurement
	// digests (firmware releases, boot ROM, policies).
	AllowedMeasurements map[cryptoutil.Digest]bool
}

// ErrPolicy reports an appraisal-policy failure.
var ErrPolicy = errors.New("attest: policy violation")

// appraiseNamed resolves a device name to its provisioned AIK and
// delegates to AppraiseKey — for the transport verifier, whose device
// identity is a wire name.
func (p *Policy) appraiseNamed(device string, q *tpm.Quote, log []tpm.LogEntry, nonce []byte) error {
	aik, ok := p.AIKs[device]
	if !ok {
		return fmt.Errorf("%w: no AIK provisioned for %s", ErrPolicy, device)
	}
	return p.AppraiseKey(aik, q, log, nonce)
}

// AppraiseKey is the pure verifier core and the single appraisal entry
// point: it checks a quote and event log against the policy with the
// device's attestation key supplied directly — the form used by callers
// (like the streaming fleet verifier) whose device identity is an
// index, not a string, and whose key material never enters a name-keyed
// map. It is independent of the transport so it can be tested and
// benchmarked directly.
func (p *Policy) AppraiseKey(aik cryptoutil.PublicKey, q *tpm.Quote, log []tpm.LogEntry, nonce []byte) error {
	if err := tpm.VerifyQuote(aik, q, nonce); err != nil {
		return fmt.Errorf("%w: %w", ErrPolicy, err)
	}
	return p.appraiseChecks(q, log)
}

// appraiseChecks is the authentication-independent tail of AppraiseKey:
// required-PCR presence, log replay consistency and the measurement
// allowlist. Both quote authenticators — the AIK signature and the
// session channel MAC — converge here, so the two paths cannot drift
// in verdict or error text.
func (p *Policy) appraiseChecks(q *tpm.Quote, log []tpm.LogEntry) error {
	quoted := make(map[int]cryptoutil.Digest, len(q.Selection))
	for i, pcr := range q.Selection {
		quoted[pcr] = q.Values[i]
	}
	for _, pcr := range PCRSelection {
		if _, ok := quoted[pcr]; !ok {
			return fmt.Errorf("%w: quote missing required PCR %d", ErrPolicy, pcr)
		}
	}
	// Replay the log and require consistency with the quoted values.
	replayed, err := tpm.ReplayLog(log)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrPolicy, err)
	}
	for pcr, val := range quoted {
		if replayed[pcr] != val {
			return fmt.Errorf("%w: event log replay of PCR %d does not match quote", ErrPolicy, pcr)
		}
	}
	// Every individual measurement must be known good.
	for _, entry := range log {
		if !p.AllowedMeasurements[entry.Measurement] {
			return fmt.Errorf("%w: unknown measurement %s (%s) in PCR %d", ErrPolicy, entry.Measurement.Short(), entry.Desc, entry.PCR)
		}
	}
	return nil
}

// Verifier drives challenges over the network and collects appraisals.
type Verifier struct {
	engine  *sim.Engine
	ep      *m2m.Endpoint
	policy  *Policy
	entropy *cryptoutil.DeterministicEntropy

	pending     map[string][]byte   // device -> outstanding nonce
	sessions    map[string]*Session // device -> established session (see session.go)
	retries     uint64              // re-challenges sent (see retry.go)
	sessionHits uint64              // quotes verified under a session MAC
	onResult    func(Appraisal)
	appraisals  []Appraisal
}

// NewVerifier creates a verifier on the given endpoint. onResult (may be
// nil) receives each appraisal as it concludes.
func NewVerifier(engine *sim.Engine, ep *m2m.Endpoint, policy *Policy, onResult func(Appraisal)) *Verifier {
	v := &Verifier{
		engine:   engine,
		ep:       ep,
		policy:   policy,
		entropy:  cryptoutil.NewDeterministicEntropy([]byte("verifier-nonce-seed")),
		pending:  make(map[string][]byte),
		sessions: make(map[string]*Session),
		onResult: onResult,
	}
	ep.Handle(MsgQuote, v.onQuote)
	return v
}

// Challenge sends a fresh-nonce challenge to a device. When the
// verifier holds an established session for the device, the challenge
// invites sign-free re-attestation under it; the device may still
// answer with a full signed quote (e.g. after losing its session
// state), which is always accepted.
func (v *Verifier) Challenge(device string) error {
	nonce := make([]byte, 16)
	if _, err := v.entropy.Read(nonce); err != nil {
		return fmt.Errorf("attest: nonce: %w", err)
	}
	var sid []byte
	if s := v.sessions[device]; s != nil {
		sid = s.id[:]
	}
	payload, err := encode(challengePayload{Nonce: nonce, Selection: PCRSelection, SessionID: sid})
	if err != nil {
		return err
	}
	if err := v.ep.Send(device, MsgChallenge, payload); err != nil {
		return fmt.Errorf("attest: challenge %s: %w", device, err)
	}
	v.pending[device] = nonce
	return nil
}

// Pending returns the number of outstanding challenges.
func (v *Verifier) Pending() int { return len(v.pending) }

// TimeoutPending concludes every outstanding challenge as a timeout.
// The fleet driver calls it after its deadline.
func (v *Verifier) TimeoutPending() {
	for device := range v.pending {
		v.conclude(Appraisal{
			Device: device, At: v.engine.Now(),
			Verdict: VerdictTimeout, Reason: "no quote before deadline",
		})
		delete(v.pending, device)
	}
}

// Appraisals returns all concluded appraisals.
func (v *Verifier) Appraisals() []Appraisal {
	out := make([]Appraisal, len(v.appraisals))
	copy(out, v.appraisals)
	return out
}

func (v *Verifier) onQuote(msg m2m.Message) {
	nonce, ok := v.pending[msg.From]
	if !ok {
		return // unsolicited quote
	}
	var qp quotePayload
	if err := decode(msg.Payload, &qp); err != nil {
		v.conclude(Appraisal{Device: msg.From, At: v.engine.Now(), Verdict: VerdictUntrusted, Reason: "malformed quote payload"})
		delete(v.pending, msg.From)
		return
	}
	// Stale-quote guard: under retries a late answer to a superseded
	// challenge can still arrive. Its nonce is honest, just old — keep
	// waiting for the current one instead of failing the appraisal.
	if !bytes.Equal(qp.Quote.Nonce, nonce) {
		return
	}
	delete(v.pending, msg.From)
	if err := v.appraisePayload(msg.From, &qp, nonce); err != nil {
		// Fail closed: whatever authenticated this device before, it
		// must present a full signed quote to be trusted again.
		delete(v.sessions, msg.From)
		v.conclude(Appraisal{Device: msg.From, At: v.engine.Now(), Verdict: VerdictUntrusted, Reason: err.Error()})
		return
	}
	if qp.MAC == nil {
		// A trusted full quote (re-)establishes the re-attestation
		// session seeded by its verified signature; the device derived
		// the same session when it answered.
		v.sessions[msg.From] = newSession(qp.Quote.Signature)
	}
	v.conclude(Appraisal{Device: msg.From, At: v.engine.Now(), Verdict: VerdictTrusted, Reason: "quote verified; all measurements known good"})
}

// appraisePayload routes one quote payload to its authenticator: the
// session MAC path when the device answered under a session, the full
// AIK-signature path otherwise. Both end in the same policy checks.
func (v *Verifier) appraisePayload(device string, qp *quotePayload, nonce []byte) error {
	if qp.MAC == nil {
		return v.policy.appraiseNamed(device, &qp.Quote, qp.Log, nonce)
	}
	s := v.sessions[device]
	var tag cryptoutil.Digest
	if s == nil || len(qp.MAC) != len(tag) {
		// A MAC-tagged quote with no live session (or a malformed tag)
		// fails exactly like a bad signature.
		return fmt.Errorf("%w: %w", ErrPolicy, tpm.ErrQuoteInvalid)
	}
	copy(tag[:], qp.MAC)
	if err := v.policy.appraiseSession(s, &qp.Quote, qp.Log, nonce, tag); err != nil {
		return err
	}
	v.sessionHits++
	return nil
}

// SessionHits returns how many quotes the verifier authenticated under
// a re-attestation session MAC instead of an AIK signature.
func (v *Verifier) SessionHits() uint64 { return v.sessionHits }

func (v *Verifier) conclude(a Appraisal) {
	v.appraisals = append(v.appraisals, a)
	if v.onResult != nil {
		v.onResult(a)
	}
}
