// Package tee models a TrustZone-style Trusted Execution Environment: a
// secure world that shares the application processor and the last-level
// cache with the normal world, hosting trustlets (secure services) and a
// secure key/secret store backed by secure SRAM.
//
// The sharing is the point. Section IV of the paper critiques TEEs on
// exactly two grounds reproduced here:
//
//  1. the secure and normal worlds share physical resources, so
//     secure-world execution leaves normal-world-observable traces in
//     the shared cache (the covert channel of experiment E10); and
//  2. trustlet verification historically lacked rollback protection
//     ("the system was using the same digital signature to verify the
//     application"), enabling downgrade attacks — this TEE always
//     enforces it: LoadTrustlet rejects a version below the installed
//     one, and experiment E7 shows the same downgrade against the boot
//     chain.
//
// Determinism contract: trustlet scheduling and cache effects advance
// through the shared sim.Engine; secure-world activity perturbs the
// cache identically for identical seeds, which is what makes the E10
// covert-channel measurements reproducible.
package tee
