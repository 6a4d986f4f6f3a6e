package ptrauth

import (
	"errors"
	"testing"
	"testing/quick"
)

func testKey(role string) Key {
	return NewKey([]byte("device-root-secret"), role)
}

func TestSignAuthRoundTrip(t *testing.T) {
	k := testKey("ia")
	ptr := uint64(0x2000_1234)
	signed, err := k.Sign(ptr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if signed == ptr {
		t.Fatal("PAC did not change pointer")
	}
	got, err := k.Auth(signed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != ptr {
		t.Fatalf("Auth = %#x, want %#x", got, ptr)
	}
}

func TestAuthRejectsForgedPointer(t *testing.T) {
	k := testKey("ia")
	signed, _ := k.Sign(0x2000_1234, 0)
	// Attacker redirects the pointer but cannot recompute the PAC.
	forged := (signed &^ uint64(0xffff)) | 0x6666
	if _, err := k.Auth(forged, 0); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestAuthContextBinding(t *testing.T) {
	k := testKey("ia")
	signed, _ := k.Sign(0x2000_1234, 7)
	if _, err := k.Auth(signed, 8); !errors.Is(err, ErrAuthFailed) {
		t.Fatal("wrong context accepted (PAC not context-bound)")
	}
}

func TestKeySeparation(t *testing.T) {
	ia, da := testKey("ia"), testKey("da")
	signed, _ := ia.Sign(0x2000_1234, 0)
	if _, err := da.Auth(signed, 0); !errors.Is(err, ErrAuthFailed) {
		t.Fatal("cross-key authentication succeeded")
	}
}

func TestSignRejectsOutOfRange(t *testing.T) {
	k := testKey("ia")
	if _, err := k.Sign(1<<63, 0); !errors.Is(err, ErrPointerRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestZeroKeyUnusable(t *testing.T) {
	var k Key
	if _, err := k.Sign(0x1000, 0); err == nil {
		t.Fatal("sign with a zero Key")
	}
	if _, err := k.Auth(0x1000, 0); err == nil {
		t.Fatal("auth with a zero Key")
	}
}

func TestReturnStackHappyPath(t *testing.T) {
	s := NewReturnStack(testKey("ia"))
	addrs := []uint64{0x1000, 0x2000, 0x3000}
	for _, a := range addrs {
		if err := s.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	if s.Depth() != 3 {
		t.Fatal("depth")
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		got, err := s.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if got != addrs[i] {
			t.Fatalf("Pop = %#x, want %#x", got, addrs[i])
		}
	}
	if _, err := s.Pop(); err == nil {
		t.Fatal("underflow accepted")
	}
}

func TestReturnStackCatchesROP(t *testing.T) {
	s := NewReturnStack(testKey("ia"))
	s.Push(0x1000)
	s.Push(0x2000)
	// ROP overwrite of the outer return address with a gadget address.
	if !s.Corrupt(0, 0x6666_0000) {
		t.Fatal("corrupt failed")
	}
	if _, err := s.Pop(); err != nil { // inner frame intact
		t.Fatal(err)
	}
	if _, err := s.Pop(); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("corrupted return not caught: %v", err)
	}
	if s.Faults() != 1 {
		t.Fatalf("faults = %d", s.Faults())
	}
}

func TestReturnStackCorruptBounds(t *testing.T) {
	s := NewReturnStack(testKey("ia"))
	if s.Corrupt(0, 1) || s.Corrupt(-1, 1) {
		t.Fatal("out-of-range corrupt accepted")
	}
}

// Property: sign/auth round-trips for any in-range pointer and context.
func TestPropertySignAuth(t *testing.T) {
	k := testKey("ia")
	f := func(ptr uint64, ctx uint64) bool {
		ptr &= (1 << pacShift) - 1 // clamp into range
		signed, err := k.Sign(ptr, ctx)
		if err != nil {
			return false
		}
		got, err := k.Auth(signed, ctx)
		return err == nil && got == ptr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a forged PAC value only verifies with probability ~2^-16;
// over 64 random forgeries we expect essentially zero successes.
func TestPropertyForgeryResistance(t *testing.T) {
	k := testKey("ia")
	successes := 0
	f := func(ptr uint64, ctx uint64, fakePAC uint16) bool {
		ptr &= (1 << pacShift) - 1
		signed, err := k.Sign(ptr, ctx)
		if err != nil {
			return false
		}
		realPAC := (signed & pacMask) >> pacShift
		if uint64(fakePAC) == realPAC {
			return true // the one-in-65536 collision: skip
		}
		forged := ptr | (uint64(fakePAC) << pacShift)
		if _, err := k.Auth(forged, ctx); err == nil {
			successes++
		}
		return successes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
