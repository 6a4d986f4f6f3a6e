package cryptoutil

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// DigestSize is the size in bytes of all digests used on the platform.
const DigestSize = sha256.Size

// Digest is a SHA-256 digest.
type Digest [DigestSize]byte

// Sum returns the SHA-256 digest of data.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// SumAll digests the concatenation of the given byte slices, with each
// slice length-prefixed so that boundaries are unambiguous.
func SumAll(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// String renders the digest as lower-case hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns the first 8 hex characters, for logs.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool { return d == Digest{} }

// ExtendDigest implements the TPM PCR extend operation:
// new = SHA-256(old || measurement).
func ExtendDigest(old, measurement Digest) Digest {
	h := sha256.New()
	h.Write(old[:])
	h.Write(measurement[:])
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// KeyPair is an ed25519 signing identity.
type KeyPair struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// GenerateKeyPair creates a key pair from the given entropy source.
func GenerateKeyPair(entropy io.Reader) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(entropy)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generate key: %w", err)
	}
	return &KeyPair{pub: pub, priv: priv}, nil
}

// KeyPairFromSeed derives a key pair deterministically from a 32-byte seed.
func KeyPairFromSeed(seed []byte) (*KeyPair, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("cryptoutil: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &KeyPair{pub: priv.Public().(ed25519.PublicKey), priv: priv}, nil
}

// Public returns the public half.
func (k *KeyPair) Public() PublicKey { return PublicKey(append([]byte(nil), k.pub...)) }

// Sign signs msg.
func (k *KeyPair) Sign(msg []byte) []byte { return ed25519.Sign(k.priv, msg) }

// PublicKey is an ed25519 public key.
type PublicKey []byte

// Verify reports whether sig is a valid signature over msg.
func (p PublicKey) Verify(msg, sig []byte) bool {
	if len(p) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(p), msg, sig)
}

// DeriveKey derives a length-byte subkey from parent keyed by label and
// context, using HMAC-SHA256 in counter mode (NIST SP 800-108 style).
// Derivation is deterministic: the same inputs always yield the same key.
func DeriveKey(parent []byte, label, context string, length int) []byte {
	if length <= 0 {
		return nil
	}
	out := make([]byte, 0, length)
	var counter uint32
	for len(out) < length {
		counter++
		mac := hmac.New(sha256.New, parent)
		var ctr [4]byte
		binary.BigEndian.PutUint32(ctr[:], counter)
		mac.Write(ctr[:])
		mac.Write([]byte(label))
		mac.Write([]byte{0})
		mac.Write([]byte(context))
		out = append(out, mac.Sum(nil)...)
	}
	return out[:length]
}

// MAC computes HMAC-SHA256 of msg under key.
func MAC(key, msg []byte) Digest {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	var d Digest
	copy(d[:], mac.Sum(nil))
	return d
}

// VerifyMAC checks an HMAC-SHA256 tag in constant time.
func VerifyMAC(key, msg []byte, tag Digest) bool {
	want := MAC(key, msg)
	return hmac.Equal(want[:], tag[:])
}

// ErrCounterRollback is returned by MonotonicCounter.Advance for a
// backwards move.
var ErrCounterRollback = errors.New("cryptoutil: monotonic counter rollback")

// MonotonicCounter models a hardware monotonic counter used for
// anti-rollback. It can only move forward; Advance to a lower value is
// rejected with ErrCounterRollback.
type MonotonicCounter struct {
	value uint64
}

// Value returns the current counter value.
func (c *MonotonicCounter) Value() uint64 { return c.value }

// Advance moves the counter to v. Moving backwards (v < current) returns
// ErrCounterRollback; v == current is a no-op.
func (c *MonotonicCounter) Advance(v uint64) error {
	if v < c.value {
		return fmt.Errorf("%w: have %d, asked %d", ErrCounterRollback, c.value, v)
	}
	c.value = v
	return nil
}
