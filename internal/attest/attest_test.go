package attest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"cres/internal/cryptoutil"
	"cres/internal/m2m"
	"cres/internal/sim"
	"cres/internal/tpm"
)

// fixture builds a verifier plus n attesting devices with healthy
// measured-boot state.
type fixture struct {
	engine    *sim.Engine
	net       *m2m.Network
	verifier  *Verifier
	policy    *Policy
	tpms      map[string]*tpm.TPM
	attesters map[string]*Attester
	results   []Appraisal
}

// Measurements every healthy device extends.
var (
	mROM    = cryptoutil.Sum([]byte("boot-rom-v1"))
	mFW     = cryptoutil.Sum([]byte("firmware-v3"))
	mPolicy = cryptoutil.Sum([]byte("policy-set-v1"))
	mEvil   = cryptoutil.Sum([]byte("evil-firmware"))
)

func measureHealthy(t *testing.T, tp *tpm.TPM) {
	t.Helper()
	if err := tp.Extend(tpm.PCRBootROM, mROM, "boot rom"); err != nil {
		t.Fatal(err)
	}
	if err := tp.Extend(tpm.PCRFirmware, mFW, "firmware v3"); err != nil {
		t.Fatal(err)
	}
	if err := tp.Extend(tpm.PCRPolicy, mPolicy, "policy"); err != nil {
		t.Fatal(err)
	}
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	e := sim.New(11)
	net := m2m.NewNetwork(e, m2m.Config{})
	f := &fixture{engine: e, net: net, tpms: make(map[string]*tpm.TPM), attesters: make(map[string]*Attester)}

	vkey, err := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{0xf0}, 32))
	if err != nil {
		t.Fatal(err)
	}
	vep, err := net.AddNode("verifier", vkey)
	if err != nil {
		t.Fatal(err)
	}
	f.policy = &Policy{
		AIKs: make(map[string]cryptoutil.PublicKey),
		AllowedMeasurements: map[cryptoutil.Digest]bool{
			mROM: true, mFW: true, mPolicy: true,
		},
	}
	f.verifier = NewVerifier(e, vep, f.policy, func(a Appraisal) { f.results = append(f.results, a) })

	for i := 0; i < n; i++ {
		name := fmt.Sprintf("device-%d", i)
		dkey, err := cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("devkey"), name, "", 32))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := net.AddNode(name, dkey)
		if err != nil {
			t.Fatal(err)
		}
		dep.Trust("verifier", vep.PublicKey())
		vep.Trust(name, dep.PublicKey())
		tp, err := tpm.New(cryptoutil.NewDeterministicEntropy([]byte(name)))
		if err != nil {
			t.Fatal(err)
		}
		measureHealthy(t, tp)
		f.attesters[name] = NewAttester(tp, dep)
		f.tpms[name] = tp
		f.policy.AIKs[name] = tp.AIKPublic()
	}
	return f
}

func TestHealthyDeviceTrusted(t *testing.T) {
	f := newFixture(t, 1)
	if err := f.verifier.Challenge("device-0"); err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(5 * time.Millisecond)
	if len(f.results) != 1 {
		t.Fatalf("results = %d", len(f.results))
	}
	if f.results[0].Verdict != VerdictTrusted {
		t.Fatalf("verdict = %v: %s", f.results[0].Verdict, f.results[0].Reason)
	}
	if f.verifier.Pending() != 0 {
		t.Fatal("challenge still pending")
	}
}

func TestTamperedFirmwareUntrusted(t *testing.T) {
	f := newFixture(t, 1)
	// The device boots evil firmware: measured boot records it.
	f.tpms["device-0"].Reboot()
	f.tpms["device-0"].Extend(tpm.PCRBootROM, mROM, "boot rom")
	f.tpms["device-0"].Extend(tpm.PCRFirmware, mEvil, "firmware ???")
	f.tpms["device-0"].Extend(tpm.PCRPolicy, mPolicy, "policy")

	f.verifier.Challenge("device-0")
	f.engine.RunFor(5 * time.Millisecond)
	if len(f.results) != 1 || f.results[0].Verdict != VerdictUntrusted {
		t.Fatalf("results = %+v", f.results)
	}
}

// challenge drives one full challenge/response exchange and returns the
// appraisal it concluded.
func (f *fixture) challenge(t *testing.T, device string) Appraisal {
	t.Helper()
	before := len(f.results)
	if err := f.verifier.Challenge(device); err != nil {
		t.Fatal(err)
	}
	f.engine.RunFor(5 * time.Millisecond)
	if len(f.results) != before+1 {
		t.Fatalf("challenge of %s concluded %d appraisals, want 1", device, len(f.results)-before)
	}
	return f.results[len(f.results)-1]
}

// TestSessionReportsTamperHonestly re-attests a device the verifier
// already trusts after it reboots into evil firmware: the second quote
// reports the tampered PCR state, and the appraisal must not inherit
// the first verdict.
func TestSessionReportsTamperHonestly(t *testing.T) {
	f := newFixture(t, 1)
	if a := f.challenge(t, "device-0"); a.Verdict != VerdictTrusted {
		t.Fatalf("healthy verdict = %v: %s", a.Verdict, a.Reason)
	}

	tp := f.tpms["device-0"]
	tp.Reboot()
	tp.Extend(tpm.PCRBootROM, mROM, "boot rom")
	tp.Extend(tpm.PCRFirmware, mEvil, "firmware ???")
	tp.Extend(tpm.PCRPolicy, mPolicy, "policy")

	if a := f.challenge(t, "device-0"); a.Verdict != VerdictUntrusted {
		t.Fatalf("tampered re-attestation verdict = %v: %s", a.Verdict, a.Reason)
	}
}

func TestSilentDeviceTimesOut(t *testing.T) {
	f := newFixture(t, 1)
	// Device vanishes: drop all traffic to it.
	f.net.SetMITM(func(m m2m.Message) *m2m.Message {
		if m.To == "device-0" {
			return nil
		}
		return &m
	})
	f.verifier.Challenge("device-0")
	f.engine.RunFor(5 * time.Millisecond)
	if f.verifier.Pending() != 1 {
		t.Fatal("challenge should still be pending")
	}
	f.verifier.TimeoutPending()
	if len(f.results) != 1 || f.results[0].Verdict != VerdictTimeout {
		t.Fatalf("results = %+v", f.results)
	}
}

func TestMITMCannotForgeQuote(t *testing.T) {
	f := newFixture(t, 1)
	// MITM intercepts the quote and swaps in a "clean" payload without
	// the AIK: the m2m signature breaks, so it never reaches the
	// verifier handler; the challenge stays pending and times out.
	f.net.SetMITM(func(m m2m.Message) *m2m.Message {
		if m.Kind == MsgQuote {
			m.Payload = []byte("forged")
		}
		return &m
	})
	f.verifier.Challenge("device-0")
	f.engine.RunFor(5 * time.Millisecond)
	f.verifier.TimeoutPending()
	if len(f.results) != 1 || f.results[0].Verdict != VerdictTimeout {
		t.Fatalf("results = %+v", f.results)
	}
}

func TestFleetMixedHealth(t *testing.T) {
	f := newFixture(t, 8)
	// Devices 2 and 5 boot tampered firmware.
	for _, d := range []string{"device-2", "device-5"} {
		f.tpms[d].Reboot()
		f.tpms[d].Extend(tpm.PCRBootROM, mROM, "boot rom")
		f.tpms[d].Extend(tpm.PCRFirmware, mEvil, "???")
		f.tpms[d].Extend(tpm.PCRPolicy, mPolicy, "policy")
	}
	for i := 0; i < 8; i++ {
		if err := f.verifier.Challenge(fmt.Sprintf("device-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	f.engine.RunFor(10 * time.Millisecond)
	if len(f.results) != 8 {
		t.Fatalf("results = %d", len(f.results))
	}
	trusted, untrusted := 0, 0
	for _, a := range f.results {
		switch a.Verdict {
		case VerdictTrusted:
			trusted++
		case VerdictUntrusted:
			untrusted++
		}
	}
	if trusted != 6 || untrusted != 2 {
		t.Fatalf("trusted=%d untrusted=%d", trusted, untrusted)
	}
	if len(f.verifier.Appraisals()) != 8 {
		t.Fatal("Appraisals()")
	}
}

func TestAppraiseRejectsReplayedNonce(t *testing.T) {
	f := newFixture(t, 1)
	tp := f.tpms["device-0"]
	q, err := tp.GenerateQuote([]byte("old-nonce"), PCRSelection)
	if err != nil {
		t.Fatal(err)
	}
	err = f.policy.appraiseNamed("device-0", q, tp.EventLog(), []byte("fresh-nonce"))
	if !errors.Is(err, ErrPolicy) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppraiseRejectsUnknownDevice(t *testing.T) {
	f := newFixture(t, 1)
	tp := f.tpms["device-0"]
	q, _ := tp.GenerateQuote([]byte("n"), PCRSelection)
	if err := f.policy.appraiseNamed("ghost", q, tp.EventLog(), []byte("n")); !errors.Is(err, ErrPolicy) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppraiseRejectsLogQuoteMismatch(t *testing.T) {
	f := newFixture(t, 1)
	tp := f.tpms["device-0"]
	nonce := []byte("n")
	q, _ := tp.GenerateQuote(nonce, PCRSelection)
	// Doctored log claiming clean firmware, inconsistent with quote.
	log := []tpm.LogEntry{
		{PCR: tpm.PCRBootROM, Measurement: mROM, Desc: "rom"},
		{PCR: tpm.PCRFirmware, Measurement: mFW, Desc: "fw"},
	}
	// Make the real device state differ first.
	tp.Extend(tpm.PCRFirmware, mEvil, "extra")
	q2, _ := tp.GenerateQuote(nonce, PCRSelection)
	if err := f.policy.appraiseNamed("device-0", q2, log, nonce); !errors.Is(err, ErrPolicy) {
		t.Fatalf("err = %v", err)
	}
	_ = q
}

func TestAppraiseRejectsMissingRequiredPCR(t *testing.T) {
	f := newFixture(t, 1)
	tp := f.tpms["device-0"]
	nonce := []byte("n")
	q, _ := tp.GenerateQuote(nonce, []int{tpm.PCRBootROM}) // missing firmware PCR
	if err := f.policy.appraiseNamed("device-0", q, tp.EventLog(), nonce); !errors.Is(err, ErrPolicy) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictTrusted.String() != "trusted" || VerdictUntrusted.String() != "untrusted" || VerdictTimeout.String() != "timeout" {
		t.Fatal("verdict names")
	}
}
