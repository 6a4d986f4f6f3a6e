// Package cryptoutil is the cryptographic substrate for the CRES platform.
//
// It wraps the standard library primitives used throughout the repository:
// ed25519 identity and signing keys, SHA-256 digests, HMAC-based key
// derivation (in the spirit of HKDF / NIST SP 800-108 counter mode),
// HMAC tags, and persistent-style monotonic counters used for
// anti-rollback.
//
// Beyond the stdlib wrappers, the package owns the fleet hot path's
// verification kernel: VartimeSigner (an RFC 8032 signer over the
// in-repo edwards25519 arithmetic, byte-identical to crypto/ed25519,
// that also emits decompressed R hints) and BatchVerifier, which
// checks a batch of ed25519 signatures with one multi-scalar
// multiplication over a random linear combination, bisecting to the
// stdlib verifier on failure so per-signature verdicts never differ
// from the one-at-a-time path. The combination's coefficients are
// derived at each flush from a seeded stream and a hash of every
// entry in the batch, so a signer who knows the seed cannot choose
// signatures whose defects cancel.
//
// That parity has one residual caveat, shared with batch verification
// in general: the combination is cofactorless, so when several entries
// carry small-order (torsion) components in their R or A, those
// components can cancel in the sum, and a batch can accept a signature
// ed25519.Verify rejects. The odd coefficients rule out a single
// defect, not several. Chalkias, Garillot & Nikolaenko catalogue this
// ambiguity in "Taming the many EdDSAs" (SSR 2020,
// https://eprint.iacr.org/2020/1244). The fleet never produces such
// signatures, because its devices sign honestly; ROADMAP item 5 tracks
// closing the gap for adversarial input.
//
// Everything here is deterministic when given a deterministic entropy
// source, which the simulator exploits for reproducible experiments.
//
// That determinism is the contract every layer above leans on: given
// the same entropy stream, keys, signatures and digests are identical
// across runs, platforms and parallelism.
package cryptoutil
