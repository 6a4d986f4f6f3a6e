// Package tpm implements a software root of trust modelled on a Trusted
// Platform Module: a bank of platform configuration registers (PCRs)
// extended during measured boot, a replayable measurement log, quote
// generation and verification for remote attestation, and hardware
// monotonic counters for anti-rollback.
//
// Table I of the paper places the root of trust, secure provisioning and
// attestation under the PROTECT core security function; the quote path is
// the substrate for the attestation experiments (E8).
//
// Determinism contract: keys and quotes derive from the deterministic
// entropy source supplied at construction; PCR state is a fold over
// the measurement sequence. Same seed, same quotes.
package tpm
