// Package cres is the public API of the Cyber Resilient Embedded System
// reference implementation — a Go reproduction of Siddiqui, Hagan &
// Sezer, "Establishing Cyber Resilience in Embedded Systems for Securing
// Next-Generation Critical Infrastructure" (IEEE SOCC 2019).
//
// A Device assembles the full platform on a deterministic simulator: the
// SoC hardware model, TPM root of trust, secure+measured boot chain, TEE,
// bus-level security policy and — in the CRES architecture — the paper's
// three proposed microarchitectural characteristics: the Active Runtime
// Resource Monitors, the physically isolated System Security Manager, and
// the Active Response Manager with graceful degradation. The Baseline
// architecture assembles the same platform WITHOUT those three, matching
// the passive trust-only posture the paper critiques.
//
// A scenario.DeviceSpec describes a device; NewDevice compiles and
// assembles it. Typical use:
//
//	dev, err := cres.NewDevice(scenario.DeviceSpec{Name: "substation-7", Seed: 42}, nil, nil)
//	...
//	rep, err := dev.Boot()
//	dev.RunFor(50 * time.Millisecond)
//	err = cres.Launch(dev, attack.CodeInjection{})
//	dev.RunFor(50 * time.Millisecond)
//	fmt.Println(dev.ForensicReport(0, dev.Now()).Render())
//
// Each RunE* experiment fans its independent device runs across the
// *harness.Pool it takes as its last parameter; a nil pool runs them
// serially. Results merge in shard order, so the output is
// byte-identical at any worker count.
package cres
