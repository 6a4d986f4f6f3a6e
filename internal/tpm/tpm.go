package tpm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"cres/internal/cryptoutil"
)

// NumPCRs is the number of platform configuration registers.
const NumPCRs = 16

// Conventional PCR allocation for the reference platform.
const (
	// PCRBootROM measures the first-stage boot ROM.
	PCRBootROM = 0
	// PCRBootloader measures the second-stage bootloader.
	PCRBootloader = 1
	// PCRFirmware measures the application firmware image.
	PCRFirmware = 2
	// PCRConfig measures device configuration.
	PCRConfig = 3
	// PCRPolicy measures the loaded security policy set.
	PCRPolicy = 4
)

// Errors returned by the package.
var (
	ErrPCRIndex     = errors.New("tpm: pcr index out of range")
	ErrQuoteInvalid = errors.New("tpm: quote signature invalid")
	ErrQuoteNonce   = errors.New("tpm: quote nonce mismatch")
)

// LogEntry is one measured-boot event.
type LogEntry struct {
	// PCR is the register the measurement was extended into.
	PCR int
	// Measurement is the digest of the measured object.
	Measurement cryptoutil.Digest
	// Desc names the measured object, e.g. "bootloader v3".
	Desc string
}

// TPM is the software root of trust. Create with New.
type TPM struct {
	pcrs     [NumPCRs]cryptoutil.Digest
	log      []LogEntry
	aik      *cryptoutil.KeyPair
	counters map[string]*cryptoutil.MonotonicCounter
	extends  uint64
}

// New creates a TPM whose endorsement hierarchy is derived from the given
// entropy source (the device's TRNG, or a deterministic stream in
// simulation).
func New(entropy io.Reader) (*TPM, error) {
	aik, err := cryptoutil.GenerateKeyPair(entropy)
	if err != nil {
		return nil, fmt.Errorf("tpm: %w", err)
	}
	return &TPM{aik: aik, counters: make(map[string]*cryptoutil.MonotonicCounter)}, nil
}

// AIKPublic returns the attestation identity public key. The verifier
// learns it during provisioning.
func (t *TPM) AIKPublic() cryptoutil.PublicKey { return t.aik.Public() }

// Extend folds a measurement into a PCR and appends to the event log.
func (t *TPM) Extend(pcr int, measurement cryptoutil.Digest, desc string) error {
	if pcr < 0 || pcr >= NumPCRs {
		return fmt.Errorf("%w: %d", ErrPCRIndex, pcr)
	}
	t.pcrs[pcr] = cryptoutil.ExtendDigest(t.pcrs[pcr], measurement)
	t.log = append(t.log, LogEntry{PCR: pcr, Measurement: measurement, Desc: desc})
	t.extends++
	return nil
}

// PCRValue returns the current value of a PCR.
func (t *TPM) PCRValue(pcr int) (cryptoutil.Digest, error) {
	if pcr < 0 || pcr >= NumPCRs {
		return cryptoutil.Digest{}, fmt.Errorf("%w: %d", ErrPCRIndex, pcr)
	}
	return t.pcrs[pcr], nil
}

// EventLog returns a copy of the measured-boot log.
func (t *TPM) EventLog() []LogEntry {
	out := make([]LogEntry, len(t.log))
	copy(out, t.log)
	return out
}

// Extends returns the total number of extend operations performed.
func (t *TPM) Extends() uint64 { return t.extends }

// Reboot clears the PCR bank and event log (volatile state) while
// preserving keys and monotonic counters (non-volatile state), as a real
// TPM does across power cycles.
func (t *TPM) Reboot() {
	t.pcrs = [NumPCRs]cryptoutil.Digest{}
	t.log = nil
}

// Counter returns the named NV monotonic counter, creating it at zero on
// first use.
func (t *TPM) Counter(name string) *cryptoutil.MonotonicCounter {
	c, ok := t.counters[name]
	if !ok {
		c = &cryptoutil.MonotonicCounter{}
		t.counters[name] = c
	}
	return c
}

// ReplayLog recomputes the PCR values implied by an event log. The
// verifier uses it to appraise a quote against the log.
func ReplayLog(entries []LogEntry) ([NumPCRs]cryptoutil.Digest, error) {
	var pcrs [NumPCRs]cryptoutil.Digest
	for i, e := range entries {
		if e.PCR < 0 || e.PCR >= NumPCRs {
			return pcrs, fmt.Errorf("%w: entry %d pcr %d", ErrPCRIndex, i, e.PCR)
		}
		pcrs[e.PCR] = cryptoutil.ExtendDigest(pcrs[e.PCR], e.Measurement)
	}
	return pcrs, nil
}

// Quote is a signed statement of a subset of PCR values, bound to a
// verifier-chosen nonce for freshness.
type Quote struct {
	Nonce     []byte
	Selection []int
	Values    []cryptoutil.Digest
	Signature []byte
}

// QuoteBodyNonceOffset is the byte offset of the nonce within the
// canonical quote-body encoding: it follows the 4-byte nonce length.
// Batched appraisers splice a fresh nonce into a prebuilt body at this
// offset instead of re-encoding the whole body per quote.
const QuoteBodyNonceOffset = 4

// AppendQuoteBody appends the deterministic signed encoding of a quote
// — the exact bytes GenerateQuote signs and VerifyQuote checks — to dst
// and returns the extended slice. The caller must pass the selection
// already sorted and deduplicated (as Quote.Selection always is).
func AppendQuoteBody(dst []byte, nonce []byte, selection []int, values []cryptoutil.Digest) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(nonce)))
	dst = append(dst, l[:]...)
	dst = append(dst, nonce...)
	binary.BigEndian.PutUint32(l[:], uint32(len(selection)))
	dst = append(dst, l[:]...)
	for _, s := range selection {
		binary.BigEndian.PutUint32(l[:], uint32(s))
		dst = append(dst, l[:]...)
	}
	for _, v := range values {
		dst = append(dst, v[:]...)
	}
	return dst
}

// quoteBody returns the deterministic signed encoding.
func quoteBody(nonce []byte, selection []int, values []cryptoutil.Digest) []byte {
	buf := make([]byte, 0, 16+len(nonce)+len(selection)*4+len(values)*cryptoutil.DigestSize)
	return AppendQuoteBody(buf, nonce, selection, values)
}

// GenerateQuote signs the selected PCRs with the AIK. The selection is
// sorted and deduplicated.
func (t *TPM) GenerateQuote(nonce []byte, selection []int) (*Quote, error) {
	sel := append([]int(nil), selection...)
	sort.Ints(sel)
	sel = dedupInts(sel)
	values := make([]cryptoutil.Digest, len(sel))
	for i, pcr := range sel {
		v, err := t.PCRValue(pcr)
		if err != nil {
			return nil, err
		}
		values[i] = v
	}
	q := &Quote{
		Nonce:     append([]byte(nil), nonce...),
		Selection: sel,
		Values:    values,
	}
	q.Signature = t.aik.Sign(quoteBody(q.Nonce, q.Selection, q.Values))
	return q, nil
}

func dedupInts(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// VerifyQuote checks a quote's signature under aik and its nonce against
// the challenge. It does not appraise the PCR values; that is the
// verifier policy's job (package attest).
func VerifyQuote(aik cryptoutil.PublicKey, q *Quote, nonce []byte) error {
	if q == nil {
		return fmt.Errorf("%w: nil quote", ErrQuoteInvalid)
	}
	if len(q.Nonce) != len(nonce) || !equalBytes(q.Nonce, nonce) {
		return ErrQuoteNonce
	}
	if len(q.Selection) != len(q.Values) {
		return fmt.Errorf("%w: selection/values length mismatch", ErrQuoteInvalid)
	}
	if !aik.Verify(quoteBody(q.Nonce, q.Selection, q.Values), q.Signature) {
		return ErrQuoteInvalid
	}
	return nil
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
