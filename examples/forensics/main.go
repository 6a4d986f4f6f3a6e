// Forensics: the paper's central claim made concrete. An attacker
// compromises the device, tampers with the firmware slot, and then tries
// to destroy the logs. On the CRES architecture the evidence store lives
// in the isolated world: the wipe attempt itself faults, becomes
// evidence, and the full breach timeline — with verified hash chain and
// signed anchors — is reconstructable. On the baseline, the plain log is
// silently erased and the investigation has nothing.
//
//	go run ./examples/forensics
package main

import (
	"fmt"
	"log"
	"time"

	"cres"
	"cres/internal/attack"
	"cres/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== CRES architecture ===")
	if err := runCRES(); err != nil {
		return err
	}
	fmt.Println("\n=== baseline architecture ===")
	return runBaseline()
}

func runCRES() error {
	tb, err := cres.NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Seed: 7})
	if err != nil {
		return err
	}
	dev := tb.Device()
	if err := tb.Warm(10 * time.Millisecond); err != nil {
		return err
	}

	attackStart := dev.Now()
	if err := (attack.FirmwareTamper{}).Launch(tb.AttackTarget()); err != nil {
		return err
	}
	dev.RunFor(10 * time.Millisecond)
	// The attacker's cleanup attempt.
	if err := (attack.LogWipe{}).Launch(tb.AttackTarget()); err != nil {
		return err
	}
	dev.RunFor(10 * time.Millisecond)

	rep := dev.ForensicReport(attackStart, dev.Now())
	fmt.Println(rep.Render())
	fmt.Printf("verdict: chain intact=%v, %d/%d anchors valid, continuity %.1f%%\n",
		rep.ChainIntact, rep.AnchorsValid, rep.AnchorsTotal, rep.Continuity*100)
	fmt.Println("the wipe attempt is itself in the timeline above (bus.security-fault alerts)")
	return nil
}

func runBaseline() error {
	tb, err := cres.NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Arch: scenario.ArchBaseline, Seed: 7})
	if err != nil {
		return err
	}
	dev := tb.Device()
	if err := tb.Warm(10 * time.Millisecond); err != nil {
		return err
	}

	if err := (attack.FirmwareTamper{}).Launch(tb.AttackTarget()); err != nil {
		return err
	}
	dev.RunFor(10 * time.Millisecond)
	fmt.Printf("plain log before wipe: %d records\n", dev.PlainLog.Len())

	// The attacker erases the log. No hash chain, no isolated store, no
	// anchors: the erasure is silent.
	dev.PlainLog.Erase(0)
	dev.RunFor(10 * time.Millisecond)

	fmt.Printf("plain log after wipe:  %d records\n", dev.PlainLog.Len())
	fmt.Println("verdict: no evidence of the breach, no evidence of the wipe —")
	fmt.Println("exactly the gap Table I's RESPOND/RECOVER rows identify.")
	return nil
}
