package tee

import (
	"bytes"
	"errors"
	"testing"

	"cres/internal/boot"
	"cres/internal/cryptoutil"
	"cres/internal/hw"
	"cres/internal/sim"
)

func newTEE(t *testing.T) (*sim.Engine, *hw.SoC, *TEE) {
	t.Helper()
	e := sim.New(1)
	soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	return e, soc, New(e, soc)
}

func vendorKey(t *testing.T) *cryptoutil.KeyPair {
	t.Helper()
	k, err := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{3}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSecretRoundTrip(t *testing.T) {
	_, _, te := newTEE(t)
	secret := []byte("m2m session key")
	if err := te.StoreSecret("m2m-key", secret); err != nil {
		t.Fatal(err)
	}
	got, err := te.Secret("m2m-key")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("Secret = %q", got)
	}
	if te.WorldSwitches() != 2 {
		t.Fatalf("world switches = %d, want 2", te.WorldSwitches())
	}
}

func TestSecretDuplicateAndUnknown(t *testing.T) {
	_, _, te := newTEE(t)
	te.StoreSecret("k", []byte("v"))
	if err := te.StoreSecret("k", []byte("v2")); !errors.Is(err, ErrSecretExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := te.Secret("ghost"); !errors.Is(err, ErrSecretUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestSecretStoreFull(t *testing.T) {
	_, _, te := newTEE(t)
	if err := te.StoreSecret("big", make([]byte, hw.SizeSecureSRAM+1)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestNormalWorldCannotReadSecret(t *testing.T) {
	_, soc, te := newTEE(t)
	te.StoreSecret("k", []byte("super secret"))
	addr, size, ok := te.SecretAddr("k")
	if !ok {
		t.Fatal("SecretAddr")
	}
	// The normal-world app core is denied by the bus security check —
	// this is the protection working as designed.
	if _, err := soc.AppCore.Read(addr, size); err == nil {
		t.Fatal("normal world read the secret")
	}
}

func TestBusTamperLeaksSecret(t *testing.T) {
	// The Section IV hardware attack end-to-end: with the NS bit flipped
	// in flight, the normal world reads secure SRAM contents.
	_, soc, te := newTEE(t)
	secret := []byte("super secret")
	te.StoreSecret("k", secret)
	addr, size, _ := te.SecretAddr("k")

	soc.Bus.SetTamper(func(tx *hw.Transaction) {
		if tx.Initiator == "app-core" {
			tx.World = hw.WorldSecure
		}
	})
	got, err := soc.AppCore.Read(addr, size)
	if err != nil {
		t.Fatalf("attack read failed: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("attack did not recover the secret")
	}
}

func TestLoadTrustletVerifiesSignature(t *testing.T) {
	_, _, te := newTEE(t)
	vendor := vendorKey(t)
	good := boot.BuildSigned("keymaster", 2, []byte("ta"), vendor)
	if err := te.LoadTrustlet(good, vendor.Public()); err != nil {
		t.Fatal(err)
	}
	v, err := te.TrustletVersion("keymaster")
	if err != nil || v != 2 {
		t.Fatalf("version = %d, %v", v, err)
	}
	attacker, _ := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{9}, 32))
	evil := boot.BuildSigned("keymaster", 3, []byte("evil"), attacker)
	if err := te.LoadTrustlet(evil, vendor.Public()); !errors.Is(err, ErrTrustletSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestTrustletRollbackProtection(t *testing.T) {
	_, _, te := newTEE(t)
	vendor := vendorKey(t)
	te.LoadTrustlet(boot.BuildSigned("keymaster", 5, []byte("v5"), vendor), vendor.Public())
	// Downgrade attack: genuine old vulnerable trustlet.
	old := boot.BuildSigned("keymaster", 2, []byte("v2-vulnerable"), vendor)
	if err := te.LoadTrustlet(old, vendor.Public()); !errors.Is(err, ErrTrustletRollback) {
		t.Fatalf("err = %v", err)
	}
	v, _ := te.TrustletVersion("keymaster")
	if v != 5 {
		t.Fatalf("version downgraded to %d", v)
	}
}

func TestInvokeTrustletTouchesSharedCache(t *testing.T) {
	_, soc, te := newTEE(t)
	vendor := vendorKey(t)
	te.LoadTrustlet(boot.BuildSigned("signer", 1, []byte("ta"), vendor), vendor.Public())

	before := soc.Cache.Stats().Accesses
	if err := te.InvokeTrustlet("signer", []int{3, 7}, 2); err != nil {
		t.Fatal(err)
	}
	after := soc.Cache.Stats().Accesses
	if after-before != 4 {
		t.Fatalf("cache accesses = %d, want 4", after-before)
	}
	calls, _ := te.TrustletCalls("signer")
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestInvokeTrustletLeaksFootprint(t *testing.T) {
	// End-to-end prime+probe: the normal world primes two sets, the
	// trustlet touches only the secret-dependent one, the probe sees
	// exactly that set evicted. This is the E10 covert channel receiver
	// logic in miniature.
	_, soc, te := newTEE(t)
	vendor := vendorKey(t)
	te.LoadTrustlet(boot.BuildSigned("victim", 1, []byte("ta"), vendor), vendor.Public())

	const set0, set1 = 5, 9
	ways := 4 // default cache config
	// Prime both sets from the normal world.
	soc.Cache.ProbeSet(set0, hw.WorldNormal, ways)
	soc.Cache.ProbeSet(set1, hw.WorldNormal, ways)
	soc.Cache.ProbeSet(set0, hw.WorldNormal, ways) // warm: all hits now
	soc.Cache.ProbeSet(set1, hw.WorldNormal, ways)

	// Secret bit = 1: trustlet touches set1 only.
	te.InvokeTrustlet("victim", []int{set1}, ways)

	m0 := soc.Cache.ProbeSet(set0, hw.WorldNormal, ways)
	m1 := soc.Cache.ProbeSet(set1, hw.WorldNormal, ways)
	if m1 <= m0 {
		t.Fatalf("probe misses set0=%d set1=%d: footprint did not leak", m0, m1)
	}
}

func TestInvokeUnknownTrustlet(t *testing.T) {
	_, _, te := newTEE(t)
	if err := te.InvokeTrustlet("ghost", []int{1}, 1); !errors.Is(err, ErrTrustletUnknown) {
		t.Fatalf("err = %v", err)
	}
	if _, err := te.TrustletCalls("ghost"); !errors.Is(err, ErrTrustletUnknown) {
		t.Fatalf("err = %v", err)
	}
	if _, err := te.TrustletVersion("ghost"); !errors.Is(err, ErrTrustletUnknown) {
		t.Fatalf("err = %v", err)
	}
}
