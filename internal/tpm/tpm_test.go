package tpm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"cres/internal/cryptoutil"
)

func newTestTPM(t *testing.T) *TPM {
	t.Helper()
	tp, err := New(cryptoutil.NewDeterministicEntropy([]byte("tpm-test")))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestExtendChangesPCR(t *testing.T) {
	tp := newTestTPM(t)
	before, _ := tp.PCRValue(PCRFirmware)
	if !before.IsZero() {
		t.Fatal("fresh PCR not zero")
	}
	if err := tp.Extend(PCRFirmware, cryptoutil.Sum([]byte("fw")), "firmware"); err != nil {
		t.Fatal(err)
	}
	after, _ := tp.PCRValue(PCRFirmware)
	if after.IsZero() || after == before {
		t.Fatal("extend did not change PCR")
	}
	if tp.Extends() != 1 {
		t.Fatalf("Extends = %d", tp.Extends())
	}
}

func TestExtendBadIndex(t *testing.T) {
	tp := newTestTPM(t)
	for _, idx := range []int{-1, NumPCRs, 100} {
		if err := tp.Extend(idx, cryptoutil.Digest{}, "x"); !errors.Is(err, ErrPCRIndex) {
			t.Errorf("Extend(%d) = %v, want ErrPCRIndex", idx, err)
		}
	}
	if _, err := tp.PCRValue(NumPCRs); !errors.Is(err, ErrPCRIndex) {
		t.Fatal("PCRValue out of range accepted")
	}
}

func TestEventLogReplayMatchesPCRs(t *testing.T) {
	tp := newTestTPM(t)
	tp.Extend(PCRBootROM, cryptoutil.Sum([]byte("rom")), "rom")
	tp.Extend(PCRBootloader, cryptoutil.Sum([]byte("bl")), "bootloader")
	tp.Extend(PCRFirmware, cryptoutil.Sum([]byte("fw")), "firmware")
	tp.Extend(PCRFirmware, cryptoutil.Sum([]byte("cfg")), "config overlay")

	replayed, err := ReplayLog(tp.EventLog())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumPCRs; i++ {
		want, _ := tp.PCRValue(i)
		if replayed[i] != want {
			t.Fatalf("PCR %d: replay %s != live %s", i, replayed[i].Short(), want.Short())
		}
	}
}

func TestReplayLogBadEntry(t *testing.T) {
	if _, err := ReplayLog([]LogEntry{{PCR: NumPCRs}}); !errors.Is(err, ErrPCRIndex) {
		t.Fatal("bad replay entry accepted")
	}
}

func TestRebootClearsPCRsKeepsCounters(t *testing.T) {
	tp := newTestTPM(t)
	tp.Extend(PCRFirmware, cryptoutil.Sum([]byte("fw")), "fw")
	tp.Counter("fw-version").Advance(7)
	aikBefore := tp.AIKPublic()

	tp.Reboot()

	v, _ := tp.PCRValue(PCRFirmware)
	if !v.IsZero() {
		t.Fatal("PCR survived reboot")
	}
	if len(tp.EventLog()) != 0 {
		t.Fatal("event log survived reboot")
	}
	if tp.Counter("fw-version").Value() != 7 {
		t.Fatal("NV counter lost on reboot")
	}
	if !bytes.Equal(tp.AIKPublic(), aikBefore) {
		t.Fatal("AIK changed on reboot")
	}
}

func TestQuoteRoundTrip(t *testing.T) {
	tp := newTestTPM(t)
	tp.Extend(PCRFirmware, cryptoutil.Sum([]byte("fw")), "fw")
	nonce := []byte("verifier-nonce-123")
	q, err := tp.GenerateQuote(nonce, []int{PCRFirmware, PCRBootloader})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(tp.AIKPublic(), q, nonce); err != nil {
		t.Fatal(err)
	}
}

func TestQuoteWrongNonce(t *testing.T) {
	tp := newTestTPM(t)
	q, err := tp.GenerateQuote([]byte("nonce-a"), []int{PCRFirmware})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(tp.AIKPublic(), q, []byte("nonce-b")); !errors.Is(err, ErrQuoteNonce) {
		t.Fatalf("err = %v, want ErrQuoteNonce", err)
	}
}

func TestQuoteTamperedValue(t *testing.T) {
	tp := newTestTPM(t)
	tp.Extend(PCRFirmware, cryptoutil.Sum([]byte("fw")), "fw")
	nonce := []byte("n")
	q, err := tp.GenerateQuote(nonce, []int{PCRFirmware})
	if err != nil {
		t.Fatal(err)
	}
	q.Values[0] = cryptoutil.Sum([]byte("forged"))
	if err := VerifyQuote(tp.AIKPublic(), q, nonce); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("err = %v, want ErrQuoteInvalid", err)
	}
}

func TestQuoteWrongKey(t *testing.T) {
	tp := newTestTPM(t)
	other := newTestTPMWithSeed(t, "other")
	nonce := []byte("n")
	q, err := tp.GenerateQuote(nonce, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(other.AIKPublic(), q, nonce); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("err = %v, want ErrQuoteInvalid", err)
	}
}

func newTestTPMWithSeed(t *testing.T, seed string) *TPM {
	t.Helper()
	tp, err := New(cryptoutil.NewDeterministicEntropy([]byte(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestQuoteNil(t *testing.T) {
	tp := newTestTPM(t)
	if err := VerifyQuote(tp.AIKPublic(), nil, nil); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatal("nil quote accepted")
	}
}

func TestQuoteSelectionSortedDeduped(t *testing.T) {
	tp := newTestTPM(t)
	q, err := tp.GenerateQuote([]byte("n"), []int{5, 1, 5, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5}
	if len(q.Selection) != len(want) {
		t.Fatalf("selection = %v, want %v", q.Selection, want)
	}
	for i := range want {
		if q.Selection[i] != want[i] {
			t.Fatalf("selection = %v, want %v", q.Selection, want)
		}
	}
}

func TestQuoteBadSelection(t *testing.T) {
	tp := newTestTPM(t)
	if _, err := tp.GenerateQuote([]byte("n"), []int{NumPCRs + 1}); !errors.Is(err, ErrPCRIndex) {
		t.Fatal("bad selection accepted")
	}
}

func TestCounterPersistsAndIsShared(t *testing.T) {
	tp := newTestTPM(t)
	c1 := tp.Counter("fw")
	if err := c1.Advance(1); err != nil {
		t.Fatal(err)
	}
	if tp.Counter("fw").Value() != 1 {
		t.Fatal("counter not shared by name")
	}
	if tp.Counter("other").Value() != 0 {
		t.Fatal("counters not independent")
	}
}

// Property: quote verification accepts exactly the original (aik, nonce,
// quote) triple and rejects any flipped signature byte.
func TestPropertyQuoteSignatureBinding(t *testing.T) {
	tp := newTestTPM(t)
	tp.Extend(2, cryptoutil.Sum([]byte("x")), "x")
	f := func(nonce []byte, flip uint8) bool {
		q, err := tp.GenerateQuote(nonce, []int{2})
		if err != nil {
			return false
		}
		if VerifyQuote(tp.AIKPublic(), q, nonce) != nil {
			return false
		}
		q.Signature[int(flip)%len(q.Signature)] ^= 0xff
		return VerifyQuote(tp.AIKPublic(), q, nonce) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: replaying any extend sequence reproduces the live PCR bank.
func TestPropertyReplayConsistency(t *testing.T) {
	f := func(seq []byte) bool {
		tp, err := New(cryptoutil.NewDeterministicEntropy([]byte("p")))
		if err != nil {
			return false
		}
		for _, b := range seq {
			pcr := int(b) % NumPCRs
			if tp.Extend(pcr, cryptoutil.Sum([]byte{b}), "m") != nil {
				return false
			}
		}
		replayed, err := ReplayLog(tp.EventLog())
		if err != nil {
			return false
		}
		for i := 0; i < NumPCRs; i++ {
			live, _ := tp.PCRValue(i)
			if replayed[i] != live {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
