package tee

import (
	"errors"
	"fmt"

	"cres/internal/boot"
	"cres/internal/cryptoutil"
	"cres/internal/hw"
	"cres/internal/sim"
)

// Errors returned by the TEE.
var (
	ErrSecretUnknown     = errors.New("tee: unknown secret")
	ErrSecretExists      = errors.New("tee: secret already stored")
	ErrTrustletSignature = errors.New("tee: trustlet signature invalid")
	ErrTrustletRollback  = errors.New("tee: trustlet version rollback")
	ErrTrustletUnknown   = errors.New("tee: unknown trustlet")
	ErrStoreFull         = errors.New("tee: secure storage full")
)

// TEE is the secure world of the application processor. Create with New.
type TEE struct {
	engine *sim.Engine
	soc    *hw.SoC
	// init is the secure-world face of the *same* physical core the
	// normal world runs on: it shares the bus path and the cache.
	init *hw.Initiator

	secrets     map[string]secretSlot
	nextOffset  uint64
	trustlets   map[string]*trustlet
	worldSwitch uint64
}

type secretSlot struct {
	addr hw.Addr
	size uint64
}

type trustlet struct {
	image *boot.Image
	// sets is the trustlet's cache working set: which cache sets its
	// execution touches. Secret-dependent trustlets touch different
	// sets for different secret values — the leak.
	calls uint64
}

// New creates the TEE on the SoC.
func New(engine *sim.Engine, soc *hw.SoC) *TEE {
	return &TEE{
		engine:    engine,
		soc:       soc,
		init:      soc.Bus.Attach("tee", hw.WorldSecure),
		secrets:   make(map[string]secretSlot),
		trustlets: make(map[string]*trustlet),
	}
}

// WorldSwitches returns the number of normal-to-secure transitions.
func (t *TEE) WorldSwitches() uint64 { return t.worldSwitch }

// StoreSecret writes a secret into secure SRAM. The write crosses the
// bus as a secure-world transaction, so a bus monitor sees (only) that a
// secure access happened — not its contents.
func (t *TEE) StoreSecret(name string, value []byte) error {
	if _, ok := t.secrets[name]; ok {
		return fmt.Errorf("%w: %s", ErrSecretExists, name)
	}
	if t.nextOffset+uint64(len(value)) > hw.SizeSecureSRAM {
		return ErrStoreFull
	}
	addr := hw.AddrSecureSRAM + hw.Addr(t.nextOffset)
	t.worldSwitch++
	if err := t.init.Write(addr, value); err != nil {
		return fmt.Errorf("tee: store secret: %w", err)
	}
	t.secrets[name] = secretSlot{addr: addr, size: uint64(len(value))}
	t.nextOffset += uint64(len(value))
	return nil
}

// Secret reads a stored secret from within the secure world.
func (t *TEE) Secret(name string) ([]byte, error) {
	slot, ok := t.secrets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSecretUnknown, name)
	}
	t.worldSwitch++
	data := make([]byte, slot.size)
	if err := t.init.ReadInto(slot.addr, data); err != nil {
		return nil, fmt.Errorf("tee: read secret: %w", err)
	}
	return data, nil
}

// SecretAddr exposes a secret's secure-SRAM address. The attack injector
// uses it to aim the bus-attribute tampering attack; legitimate code has
// no use for it.
func (t *TEE) SecretAddr(name string) (hw.Addr, uint64, bool) {
	slot, ok := t.secrets[name]
	return slot.addr, slot.size, ok
}

// LoadTrustlet verifies and installs a trustlet image signed by vendor.
// A trustlet version below the highest previously loaded version for
// that name is rejected (anti-rollback).
func (t *TEE) LoadTrustlet(im *boot.Image, vendor cryptoutil.PublicKey) error {
	if err := im.Verify(vendor); err != nil {
		return fmt.Errorf("%w: %v", ErrTrustletSignature, err)
	}
	if prev, ok := t.trustlets[im.Name]; ok {
		if im.Version < prev.image.Version {
			return fmt.Errorf("%w: %s v%d < installed v%d", ErrTrustletRollback, im.Name, im.Version, prev.image.Version)
		}
	}
	t.trustlets[im.Name] = &trustlet{image: im}
	return nil
}

// TrustletVersion returns the installed version of a trustlet.
func (t *TEE) TrustletVersion(name string) (uint64, error) {
	tl, ok := t.trustlets[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrTrustletUnknown, name)
	}
	return tl.image.Version, nil
}

// InvokeTrustlet models executing a trustlet whose cache working set is
// the given cache sets. Each invocation is a world switch; the execution
// touches the SHARED last-level cache from the secure world — the
// footprint a normal-world prime+probe attacker measures.
//
// touchSets lists the cache set indexes the trustlet's data accesses hit;
// linesPerSet is how many distinct lines it touches in each set.
func (t *TEE) InvokeTrustlet(name string, touchSets []int, linesPerSet int) error {
	tl, ok := t.trustlets[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTrustletUnknown, name)
	}
	t.worldSwitch++
	tl.calls++
	cache := t.soc.Cache
	for _, set := range touchSets {
		for i := 0; i < linesPerSet; i++ {
			// The trustlet's working set lives at secure addresses whose
			// tags differ from anything the normal world touches, so its
			// accesses contend for the set and evict primed lines.
			addr := hw.Addr(((uint64(i)+0x10000)*uint64(cache.Sets()) + uint64(set)) * cache.LineSize())
			cache.Access(addr, hw.WorldSecure)
		}
	}
	return nil
}

// TrustletCalls returns how many times the trustlet ran.
func (t *TEE) TrustletCalls(name string) (uint64, error) {
	tl, ok := t.trustlets[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrTrustletUnknown, name)
	}
	return tl.calls, nil
}
