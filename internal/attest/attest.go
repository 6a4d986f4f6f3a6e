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

// challengePayload is the verifier -> device request.
type challengePayload struct {
	Nonce     []byte
	Selection []int
}

// quotePayload is the device -> verifier response.
type quotePayload struct {
	Quote tpm.Quote
	Log   []tpm.LogEntry
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
}

// NewAttester wires a device TPM to its network endpoint. It registers
// the challenge handler.
func NewAttester(t *tpm.TPM, ep *m2m.Endpoint) *Attester {
	a := &Attester{tpm: t, ep: ep}
	ep.Handle(MsgChallenge, a.onChallenge)
	return a
}

func (a *Attester) onChallenge(msg m2m.Message) {
	var ch challengePayload
	if err := decode(msg.Payload, &ch); err != nil {
		return
	}
	sel := ch.Selection
	if len(sel) == 0 {
		sel = PCRSelection
	}
	q, err := a.tpm.GenerateQuote(ch.Nonce, sel)
	if err != nil {
		return
	}
	payload, err := encode(quotePayload{Quote: *q, Log: a.tpm.EventLog()})
	if err != nil {
		return
	}
	// Send fails only for an unknown node, and the network has just
	// delivered a message from msg.From.
	_ = a.ep.Send(msg.From, MsgQuote, payload)
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

	pending    map[string][]byte // device -> outstanding nonce
	retries    uint64            // re-challenges sent (see retry.go)
	onResult   func(Appraisal)
	appraisals []Appraisal
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
		onResult: onResult,
	}
	ep.Handle(MsgQuote, v.onQuote)
	return v
}

// Challenge sends a fresh-nonce challenge to a device.
func (v *Verifier) Challenge(device string) error {
	nonce := make([]byte, 16)
	if _, err := v.entropy.Read(nonce); err != nil {
		return fmt.Errorf("attest: nonce: %w", err)
	}
	payload, err := encode(challengePayload{Nonce: nonce, Selection: PCRSelection})
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
	if err := v.policy.appraiseNamed(msg.From, &qp.Quote, qp.Log, nonce); err != nil {
		v.conclude(Appraisal{Device: msg.From, At: v.engine.Now(), Verdict: VerdictUntrusted, Reason: err.Error()})
		return
	}
	v.conclude(Appraisal{Device: msg.From, At: v.engine.Now(), Verdict: VerdictTrusted, Reason: "quote verified; all measurements known good"})
}

func (v *Verifier) conclude(a Appraisal) {
	v.appraisals = append(v.appraisals, a)
	if v.onResult != nil {
		v.onResult(a)
	}
}
