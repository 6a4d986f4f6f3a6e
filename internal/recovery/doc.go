// Package recovery implements the RECOVER core security function of
// Table I: returning the device to a healthy provisioned state after a
// detected compromise. It provides secure firmware update: roll-forward
// to a fixed release, and A/B slot rollback within the anti-rollback
// envelope.
//
// Determinism contract: updates operate on simulated memory and the
// boot chain only; recovery outcomes replay exactly from a seed.
package recovery
