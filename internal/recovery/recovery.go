package recovery

import (
	"errors"
	"fmt"

	"cres/internal/boot"
	"cres/internal/hw"
	"cres/internal/tpm"
)

// Errors returned by the package.
var (
	ErrUpdateVersion  = errors.New("recovery: update version not newer than running firmware")
	ErrUpdateRejected = errors.New("recovery: update image rejected")
)

// Updater performs secure firmware updates against the boot chain's
// A/B slots: verify the vendor signature, require a version strictly
// above the running one (roll-forward), stage into the inactive slot,
// and activate by reboot. The TPM anti-rollback counter guarantees the
// device can never be downgraded below its high-water mark, even by the
// updater itself.
type Updater struct {
	mem   *hw.Memory
	chain *boot.Chain
	tpm   *tpm.TPM
}

// NewUpdater creates an updater bound to the platform.
func NewUpdater(mem *hw.Memory, chain *boot.Chain, t *tpm.TPM) *Updater {
	return &Updater{mem: mem, chain: chain, tpm: t}
}

// Stage validates an update image and writes it into the inactive slot.
// activeSlot is the currently booted slot.
func (u *Updater) Stage(im *boot.Image, activeSlot boot.Slot) error {
	if err := im.Verify(u.chain.VendorKey()); err != nil {
		return fmt.Errorf("%w: %w", ErrUpdateRejected, err)
	}
	cur := u.tpm.Counter(boot.CounterFirmwareVersion).Value()
	if im.Version <= cur {
		return fmt.Errorf("%w: staged v%d, running high-water v%d", ErrUpdateVersion, im.Version, cur)
	}
	target := boot.SlotA
	if activeSlot == boot.SlotA {
		target = boot.SlotB
	}
	if err := boot.InstallImage(u.mem, target, im); err != nil {
		return fmt.Errorf("recovery: stage update: %w", err)
	}
	return nil
}

// Activate reboots through the chain to pick up the staged image. It
// returns the boot report. The TPM is rebooted (PCRs cleared) as part of
// the reset.
func (u *Updater) Activate() (*boot.Report, error) {
	u.tpm.Reboot()
	rep, err := u.chain.Boot(u.mem, u.tpm)
	if err != nil {
		return rep, fmt.Errorf("recovery: activate update: %w", err)
	}
	return rep, nil
}
