// Smartgrid: a substation protection controller under attack.
//
// The device runs four services — the safety-critical protection relay
// (with a redundant backup controller), telemetry, remote management and
// a local HMI. A man-in-the-middle first tries to inject breaker
// commands (defeated by message authentication), then a compromised
// application attempts control-flow hijack (contained by isolation).
// The protection relay never goes down; the same attack on the baseline
// architecture forces a full reboot with a 500ms protection outage —
// an eternity for a protection function.
//
//	go run ./examples/smartgrid
package main

import (
	"fmt"
	"log"
	"time"

	"cres"
	"cres/internal/attack"
	"cres/internal/hw"
	"cres/internal/scenario"
	"cres/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	for _, arch := range []string{scenario.ArchCRES, scenario.ArchBaseline} {
		fmt.Printf("=== substation controller, %s architecture ===\n", arch)
		if err := runArch(arch); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runArch(arch string) error {
	tb, err := cres.NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Arch: arch, Seed: 99})
	if err != nil {
		return err
	}
	dev := tb.Device()

	// The breaker actuator: fail-safe value 0 (open / tripped).
	breaker := hw.NewActuator("breaker-bay3", 0)
	dev.AddActuator(breaker)

	// Grid protection workload: sample grid frequency, trip the breaker
	// if it leaves the band. The simulated grid runs at 50Hz +/- noise.
	gridFreq := hw.NewEnvSensor(dev.Engine, hw.SensorClock, "grid-freq", 50.0, 0.05)
	trips := 0
	protection, err := sim.NewTicker(dev.Engine, 500*time.Microsecond, func(at sim.VirtualTime) {
		up, _ := dev.Degrader.Up("protection-relay")
		if !up {
			return // protection outage: nobody watches the grid
		}
		f := gridFreq.Sample()
		if f < 49.5 || f > 50.5 {
			breaker.Apply(at, 1) // trip command
			trips++
		}
	})
	if err != nil {
		return err
	}
	defer protection.Stop()

	if err := tb.Warm(15 * time.Millisecond); err != nil {
		return err
	}

	// Phase 1: MITM tries to forge breaker commands.
	if err := (attack.M2MMITM{Messages: 6}).Launch(tb.AttackTarget()); err != nil {
		return err
	}
	dev.RunFor(5 * time.Millisecond)
	fmt.Printf("phase 1 (MITM): endpoint rejected %d forged messages\n", dev.Endpoint.Rejected())

	// Phase 2: code injection in the application.
	if err := (attack.CodeInjection{}).Launch(tb.AttackTarget()); err != nil {
		return err
	}
	if arch == scenario.ArchBaseline {
		// The baseline's only move, once the operator notices: reboot.
		dev.Engine.MustSchedule(20*time.Millisecond, func() {
			dev.Baseline.Reboot("operator power cycle", nil)
		})
	}

	// Measure protection-relay availability over the next 600ms.
	samples, upSamples := 0, 0
	avail, err := sim.NewTicker(dev.Engine, time.Millisecond, func(sim.VirtualTime) {
		samples++
		if up, _ := dev.Degrader.Up("protection-relay"); up {
			upSamples++
		}
	})
	if err != nil {
		return err
	}
	dev.RunFor(600 * time.Millisecond)
	avail.Stop()

	fmt.Printf("phase 2 (code injection): protection-relay availability %.1f%% over 600ms\n",
		100*float64(upSamples)/float64(samples))
	if dev.SSM != nil {
		fmt.Printf("SSM state: %s; isolated: %v; responses: %d\n",
			dev.SSM.State(), dev.Responder.Isolated(), dev.SSM.ResponsesFired())
	} else {
		fmt.Printf("baseline: reboots=%d (all services dropped during reboot)\n", dev.Baseline.Reboots())
	}
	fmt.Printf("breaker trips executed: %d; breaker locked: %v\n", trips, breaker.Locked())
	return nil
}
