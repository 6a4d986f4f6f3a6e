// Quickstart: build a cyber-resilient device, boot it, hit it with an
// attack, and watch the detect -> respond -> degrade -> recover cycle.
//
//	go run ./examples/quickstart
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
	// 1. Assemble a device from its spec. The zero spec fields select
	// the reference shape: the CRES architecture (isolated security
	// manager core, runtime resource monitors, active response
	// manager), combined detection and every monitor. Nil engine and
	// network give the device a private engine seeded from Seed and no
	// network endpoint.
	dev, err := cres.NewDevice(scenario.DeviceSpec{Name: "quickstart-device", Seed: 42}, nil, nil)
	if err != nil {
		return err
	}

	// 2. Secure, measured boot. The firmware's signature is verified
	// against the vendor key burned into ROM; every stage is measured
	// into the TPM.
	rep, err := dev.Boot()
	if err != nil {
		return err
	}
	fmt.Printf("booted %s v%d from slot %s (healthy=%v)\n",
		rep.Image.Name, rep.Image.Version, rep.BootedSlot, rep.Healthy)

	// 3. Run a healthy workload for a while: a sense->decide->act loop.
	// The monitors learn its baseline.
	blocks := []hw.BlockID{1, 2, 3, 4}
	i := 0
	workload, err := sim.NewTicker(dev.Engine, 100*time.Microsecond, func(sim.VirtualTime) {
		if dev.SoC.AppCore.Halted() {
			return
		}
		dev.SoC.AppCore.ExecBlock(blocks[i%len(blocks)])
		dev.SoC.AppCore.Read(hw.AddrSRAM+hw.Addr((i*64)%8192), 16)
		i++
	})
	if err != nil {
		return err
	}
	defer workload.Stop()
	dev.RunFor(20 * time.Millisecond)
	fmt.Printf("after 20ms healthy run: state=%s, alerts=%d\n",
		dev.SSM.State(), dev.SSM.AlertsHandled())

	// 4. An exploited vulnerability injects code into the application.
	attackStart := dev.Now()
	if err := cres.Launch(dev, attack.CodeInjection{}); err != nil {
		return err
	}
	dev.RunFor(10 * time.Millisecond)

	// 5. The CFI monitor detected it; the SSM contained it.
	det, _ := dev.SSM.FirstDetection("cfi.unknown-block")
	fmt.Printf("\ninjection detected %v after launch\n", det.At.Sub(attackStart))
	fmt.Printf("state=%s, app core halted=%v, isolated=%v\n",
		dev.SSM.State(), dev.SoC.AppCore.Halted(), dev.Responder.Isolated())
	crit, up, total := dev.Degrader.UpCount()
	fmt.Printf("services: %d/%d up, critical up: %d (graceful degradation)\n", up, total, crit)

	// 6. Operator verifies and recovers the core; everything returns.
	if err := dev.Recover("app-core", "image verified clean, core restarted"); err != nil {
		return err
	}
	dev.RunFor(5 * time.Millisecond)
	fmt.Printf("\nafter recovery: state=%s, services up=%v\n", dev.SSM.State(), dev.Degrader.Snapshot())

	// 7. The whole episode is reconstructable from tamper-evident
	// evidence.
	forensics := dev.ForensicReport(attackStart, dev.Now())
	fmt.Println()
	fmt.Println(forensics.Render())
	return nil
}
