package ptrauth

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cres/internal/cryptoutil"
)

// PACBits is the number of pointer bits carrying the authentication
// code. Embedded address spaces are small; the reference SoC uses a
// 40-bit virtual space leaving 24 bits for the PAC — we model 16 to
// keep forgery probability realistic (2^-16) rather than negligible.
const PACBits = 16

// pacShift positions the PAC in the top bits of a 64-bit pointer.
const pacShift = 64 - PACBits

// pacMask extracts the PAC field.
const pacMask = ((1 << PACBits) - 1) << pacShift

// Errors returned by the package.
var (
	// ErrAuthFailed reports a pointer whose PAC did not verify; in
	// hardware this poisons the pointer so dereferencing traps.
	ErrAuthFailed = errors.New("ptrauth: pointer authentication failed")
	// ErrPointerRange reports a pointer using the PAC bits as address.
	ErrPointerRange = errors.New("ptrauth: pointer exceeds addressable range")
)

// Key is a pointer-authentication key (one of the IA/IB/DA/DB family).
// The zero value is unusable; derive with NewKey.
type Key struct {
	material []byte
}

// NewKey derives a PAC key from the device root secret and a role label
// ("ia" for instruction pointers, "da" for data pointers, ...).
func NewKey(rootSecret []byte, role string) Key {
	return Key{material: cryptoutil.DeriveKey(rootSecret, "pac", role, 32)}
}

// pac computes the truncated MAC for ptr under the context modifier.
func (k Key) pac(ptr uint64, context uint64) uint64 {
	var msg [16]byte
	binary.BigEndian.PutUint64(msg[:8], ptr)
	binary.BigEndian.PutUint64(msg[8:], context)
	tag := cryptoutil.MAC(k.material, msg[:])
	return uint64(binary.BigEndian.Uint16(tag[:2]))
}

// Sign attaches a PAC to ptr (the PACIA instruction). ptr must fit in
// the addressable range (its top PACBits clear).
func (k Key) Sign(ptr uint64, context uint64) (uint64, error) {
	if k.material == nil {
		return 0, errors.New("ptrauth: sign with a zero Key")
	}
	if ptr&pacMask != 0 {
		return 0, fmt.Errorf("%w: %#x", ErrPointerRange, ptr)
	}
	return ptr | (k.pac(ptr, context) << pacShift), nil
}

// Auth verifies and strips the PAC (the AUTIA instruction), returning
// the raw pointer. A mismatch returns ErrAuthFailed.
func (k Key) Auth(signed uint64, context uint64) (uint64, error) {
	if k.material == nil {
		return 0, errors.New("ptrauth: auth with a zero Key")
	}
	ptr := signed &^ uint64(pacMask)
	want := k.pac(ptr, context)
	got := (signed & pacMask) >> pacShift
	if got != want {
		return 0, fmt.Errorf("%w: ptr %#x", ErrAuthFailed, ptr)
	}
	return ptr, nil
}

// ReturnStack is a PAC-protected shadow of return addresses, modelling
// the "deployment of separate stacks and their pointer registers"
// hardening the paper mentions for ARM Cortex-M33. Push signs the
// return address against the current stack depth; Pop authenticates it.
// A corrupted (ROP-overwritten) entry fails on Pop.
type ReturnStack struct {
	key     Key
	entries []uint64
	faults  uint64
}

// NewReturnStack creates a protected return stack.
func NewReturnStack(key Key) *ReturnStack {
	return &ReturnStack{key: key}
}

// Depth returns the current stack depth.
func (s *ReturnStack) Depth() int { return len(s.entries) }

// Faults returns how many authentication failures Pop has seen.
func (s *ReturnStack) Faults() uint64 { return s.faults }

// Push signs and stores a return address.
func (s *ReturnStack) Push(retAddr uint64) error {
	signed, err := s.key.Sign(retAddr, uint64(len(s.entries)))
	if err != nil {
		return err
	}
	s.entries = append(s.entries, signed)
	return nil
}

// Pop authenticates and returns the most recent return address.
func (s *ReturnStack) Pop() (uint64, error) {
	if len(s.entries) == 0 {
		return 0, errors.New("ptrauth: return stack underflow")
	}
	signed := s.entries[len(s.entries)-1]
	s.entries = s.entries[:len(s.entries)-1]
	ptr, err := s.key.Auth(signed, uint64(len(s.entries)))
	if err != nil {
		s.faults++
		return 0, err
	}
	return ptr, nil
}

// Corrupt overwrites the entry at depth idx with an attacker-chosen
// value (the ROP write primitive). Only the attack injector calls this.
func (s *ReturnStack) Corrupt(idx int, value uint64) bool {
	if idx < 0 || idx >= len(s.entries) {
		return false
	}
	s.entries[idx] = value
	return true
}
