package boot

import (
	"errors"
	"fmt"

	"cres/internal/cryptoutil"
	"cres/internal/hw"
	"cres/internal/tpm"
)

// Slot identifies an A/B firmware slot.
type Slot uint8

// Firmware slots.
const (
	SlotA Slot = iota + 1
	SlotB
)

// String implements fmt.Stringer.
func (s Slot) String() string {
	switch s {
	case SlotA:
		return "A"
	case SlotB:
		return "B"
	default:
		return fmt.Sprintf("slot(%d)", uint8(s))
	}
}

// slotAddr maps a slot to its flash base address.
func slotAddr(s Slot) hw.Addr {
	if s == SlotB {
		return hw.AddrSlotB
	}
	return hw.AddrSlotA
}

// CounterFirmwareVersion is the TPM NV counter recording the highest
// firmware version ever booted (the anti-rollback high-water mark).
const CounterFirmwareVersion = "fw-version"

// Options configure the boot chain. The zero value is the hardened
// configuration; the Weak* flags re-introduce the historical
// vulnerabilities of Section IV for the attack experiments.
type Options struct {
	// WeakNoRollbackProtection disables the monotonic-counter version
	// check — the flaw behind the TrustZone downgrade attack.
	WeakNoRollbackProtection bool
	// WeakSkipSignature disables signature verification (integrity by
	// digest only) — the flaw class behind persistent early-code-
	// execution bootchain attacks.
	WeakSkipSignature bool
}

// StageResult records the outcome of one boot stage.
type StageResult struct {
	Stage    string
	Detail   string
	Measured cryptoutil.Digest
	Err      error
}

// Report is the outcome of a boot attempt.
type Report struct {
	Stages     []StageResult
	BootedSlot Slot
	Image      *Image
	// Healthy is true when every stage verified and the chain completed.
	Healthy bool
}

// Chain is the platform boot chain: an immutable ROM root, the vendor
// public key burned into it, and the measured-boot TPM binding.
type Chain struct {
	vendorKey cryptoutil.PublicKey
	romCode   []byte
	opts      Options
}

// NewChain creates a boot chain with the vendor key burned into ROM.
func NewChain(vendorKey cryptoutil.PublicKey, opts Options) *Chain {
	return &Chain{
		vendorKey: append(cryptoutil.PublicKey(nil), vendorKey...),
		romCode:   []byte("cres boot rom v1"),
		opts:      opts,
	}
}

// InstallImage writes a serialized image into a flash slot, bypassing the
// bus (flash programming happens out-of-band in manufacturing or via the
// recovery updater).
func InstallImage(mem *hw.Memory, slot Slot, im *Image) error {
	data := im.Marshal()
	if uint64(len(data)) > hw.SizeSlot {
		return fmt.Errorf("boot: image %d bytes exceeds slot size %d", len(data), hw.SizeSlot)
	}
	if err := mem.Poke(slotAddr(slot), data); err != nil {
		return fmt.Errorf("boot: install image: %w", err)
	}
	return nil
}

// ReadSlot parses the image currently stored in a slot.
func ReadSlot(mem *hw.Memory, slot Slot) (*Image, error) {
	raw, err := mem.Peek(slotAddr(slot), hw.SizeSlot)
	if err != nil {
		return nil, fmt.Errorf("boot: read slot %s: %w", slot, err)
	}
	return ParseImage(raw)
}

// Boot runs the chain: measure ROM, then find, verify, version-check,
// measure and "execute" the best firmware slot. Slot preference is the
// higher valid version, trying the other slot on failure (the A/B
// fallback path). The TPM must be freshly rebooted (PCRs clear).
func (c *Chain) Boot(mem *hw.Memory, t *tpm.TPM) (*Report, error) {
	rep := &Report{}

	// Stage 1: the ROM measures itself. It is immutable, so this anchors
	// the chain of trust.
	romDigest := cryptoutil.Sum(c.romCode)
	if err := t.Extend(tpm.PCRBootROM, romDigest, "boot-rom"); err != nil {
		return rep, fmt.Errorf("boot: measure rom: %w", err)
	}
	rep.Stages = append(rep.Stages, StageResult{Stage: "rom", Detail: "measured boot rom", Measured: romDigest})

	// Stage 2: enumerate candidate slots in preference order.
	type candidate struct {
		slot Slot
		im   *Image
		err  error
	}
	var cands []candidate
	for _, s := range []Slot{SlotA, SlotB} {
		im, err := ReadSlot(mem, s)
		cands = append(cands, candidate{slot: s, im: im, err: err})
	}
	// Prefer the higher version among parseable images.
	if cands[0].err == nil && cands[1].err == nil && cands[1].im.Version > cands[0].im.Version {
		cands[0], cands[1] = cands[1], cands[0]
	}

	counter := t.Counter(CounterFirmwareVersion)
	for _, cand := range cands {
		stage := StageResult{Stage: "firmware", Detail: fmt.Sprintf("slot %s", cand.slot)}
		if cand.err != nil {
			stage.Err = cand.err
			rep.Stages = append(rep.Stages, stage)
			continue
		}
		if err := c.verifyImage(cand.im); err != nil {
			stage.Err = err
			rep.Stages = append(rep.Stages, stage)
			continue
		}
		if !c.opts.WeakNoRollbackProtection && cand.im.Version < counter.Value() {
			stage.Err = fmt.Errorf("%w: image v%d < counter %d", ErrRollback, cand.im.Version, counter.Value())
			rep.Stages = append(rep.Stages, stage)
			continue
		}

		// Verified: measure and execute.
		d := cand.im.Digest()
		if err := t.Extend(tpm.PCRFirmware, d, fmt.Sprintf("%s v%d slot %s", cand.im.Name, cand.im.Version, cand.slot)); err != nil {
			return rep, fmt.Errorf("boot: measure firmware: %w", err)
		}
		stage.Measured = d
		stage.Detail = fmt.Sprintf("slot %s: %s v%d verified", cand.slot, cand.im.Name, cand.im.Version)
		rep.Stages = append(rep.Stages, stage)

		if !c.opts.WeakNoRollbackProtection {
			if err := counter.Advance(cand.im.Version); err != nil {
				// Unreachable given the check above; defensive.
				return rep, fmt.Errorf("boot: advance version counter: %w", err)
			}
		}
		rep.BootedSlot = cand.slot
		rep.Image = cand.im
		rep.Healthy = true
		return rep, nil
	}

	// Both slots failed: collect the causes.
	var errs []error
	for _, st := range rep.Stages {
		if st.Err != nil {
			errs = append(errs, st.Err)
		}
	}
	return rep, fmt.Errorf("%w: %w", ErrNoBootableSlot, errors.Join(errs...))
}

// verifyImage applies the configured verification policy.
func (c *Chain) verifyImage(im *Image) error {
	if c.opts.WeakSkipSignature {
		// The vulnerable variant checks only well-formedness: a digest
		// exists by construction, so any parseable image passes. This is
		// the behaviour the keyshuffling-class attacks exploited.
		return nil
	}
	return im.Verify(c.vendorKey)
}

// VendorKey returns the ROM-burned vendor public key.
func (c *Chain) VendorKey() cryptoutil.PublicKey { return c.vendorKey }
