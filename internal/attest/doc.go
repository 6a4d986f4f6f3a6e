// Package attest implements remote attestation between field devices and
// an operator-side verifier: nonce challenge, TPM quote generation,
// event-log replay and appraisal against a golden-measurement policy.
// Secure provisioning and attestation appear in Table I's PROTECT row;
// the fleet experiment (E8) exercises the verifier at scale.
//
// The design follows the standard challenge-response shape: the verifier
// sends a fresh nonce; the device returns a quote (AIK-signed PCR values
// bound to the nonce) plus its measured-boot event log; the verifier
// checks the signature, replays the log against the quoted PCRs, and
// appraises every firmware measurement against an allowlist.
//
// For bulk appraisal, BatchAppraiser compiles a policy into queueable
// form and settles whole signature batches through
// cryptoutil.BatchVerifier, with per-verdict parity to the one-shot
// path.
//
// Determinism contract: nonces, keys and quotes all derive from the
// deterministic entropy plumbed in at construction, so an attestation
// exchange — and the fleet sweeps built on it — replays identically
// from a seed.
package attest
