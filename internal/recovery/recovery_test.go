package recovery

import (
	"bytes"
	"errors"
	"testing"

	"cres/internal/boot"
	"cres/internal/cryptoutil"
	"cres/internal/hw"
	"cres/internal/sim"
	"cres/internal/tpm"
)

type rig struct {
	soc    *hw.SoC
	tpm    *tpm.TPM
	vendor *cryptoutil.KeyPair
	chain  *boot.Chain
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.New(1)
	soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := tpm.New(cryptoutil.NewDeterministicEntropy([]byte("recovery-test")))
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return &rig{soc: soc, tpm: tp, vendor: vendor, chain: boot.NewChain(vendor.Public(), boot.Options{})}
}

func (r *rig) bootV(t *testing.T, version uint64) *boot.Report {
	t.Helper()
	im := boot.BuildSigned("firmware", version, []byte("fw"), r.vendor)
	if err := boot.InstallImage(r.soc.Mem, boot.SlotA, im); err != nil {
		t.Fatal(err)
	}
	rep, err := r.chain.Boot(r.soc.Mem, r.tpm)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestUpdaterRollForward(t *testing.T) {
	r := newRig(t)
	rep := r.bootV(t, 3)
	u := NewUpdater(r.soc.Mem, r.chain, r.tpm)

	next := boot.BuildSigned("firmware", 4, []byte("fw v4 fixed"), r.vendor)
	if err := u.Stage(next, rep.BootedSlot); err != nil {
		t.Fatal(err)
	}
	rep2, err := u.Activate()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Image.Version != 4 || rep2.BootedSlot != boot.SlotB {
		t.Fatalf("activated = v%d slot %v", rep2.Image.Version, rep2.BootedSlot)
	}
}

func TestUpdaterRejectsStaleVersion(t *testing.T) {
	r := newRig(t)
	rep := r.bootV(t, 3)
	u := NewUpdater(r.soc.Mem, r.chain, r.tpm)
	stale := boot.BuildSigned("firmware", 3, []byte("same version"), r.vendor)
	if err := u.Stage(stale, rep.BootedSlot); !errors.Is(err, ErrUpdateVersion) {
		t.Fatalf("err = %v", err)
	}
	older := boot.BuildSigned("firmware", 2, []byte("older"), r.vendor)
	if err := u.Stage(older, rep.BootedSlot); !errors.Is(err, ErrUpdateVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdaterRejectsBadSignature(t *testing.T) {
	r := newRig(t)
	rep := r.bootV(t, 3)
	u := NewUpdater(r.soc.Mem, r.chain, r.tpm)
	attacker, _ := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{9}, 32))
	evil := boot.BuildSigned("firmware", 10, []byte("evil"), attacker)
	if err := u.Stage(evil, rep.BootedSlot); !errors.Is(err, ErrUpdateRejected) {
		t.Fatalf("err = %v", err)
	}
}
