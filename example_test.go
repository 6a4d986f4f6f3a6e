package cres_test

import (
	"fmt"
	"time"

	"cres"
	"cres/internal/attack"
	"cres/internal/hw"
	"cres/internal/landscape"
	"cres/internal/scenario"
)

// ExampleNewDevice shows the minimal lifecycle: build, boot, verify.
func ExampleNewDevice() {
	dev, err := cres.NewDevice(scenario.DeviceSpec{Name: "field-unit-1", Seed: 1}, nil, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep, err := dev.Boot()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("booted %s v%d from slot %s\n", rep.Image.Name, rep.Image.Version, rep.BootedSlot)
	fmt.Printf("architecture: %s, health: %s\n", dev.Arch, dev.SSM.State())
	// Output:
	// booted firmware v1 from slot A
	// architecture: cres, health: healthy
}

// ExampleLaunch shows detection and automatic response to an injected
// attack.
func ExampleLaunch() {
	dev, _ := cres.NewDevice(scenario.DeviceSpec{Name: "field-unit-2", Seed: 1}, nil, nil)
	dev.Boot()
	dev.RunFor(5 * time.Millisecond)

	if err := cres.Launch(dev, attack.SecureProbe{}); err != nil {
		fmt.Println(err)
		return
	}
	dev.RunFor(10 * time.Millisecond)

	fmt.Printf("state: %s\n", dev.SSM.State())
	fmt.Printf("isolated: %v\n", dev.Responder.Isolated())
	fmt.Printf("critical services up: %v\n", dev.Degrader.CriticalUp())
	// Output:
	// state: degraded
	// isolated: [app-core]
	// critical services up: true
}

// ExampleRunE1TableI regenerates the paper's Table I gap analysis.
func ExampleRunE1TableI() {
	res := cres.RunE1TableI()
	fmt.Printf("requirements: %d\n", res.Requirements)
	fmt.Printf("derived gaps: %v\n", res.Gaps)
	// Output:
	// requirements: 21
	// derived gaps: [Active countermeasure Evidence Collection]
}

// ExampleDevice_ForensicReport reconstructs a breach timeline.
func ExampleDevice_ForensicReport() {
	dev, _ := cres.NewDevice(scenario.DeviceSpec{Name: "field-unit-3", Seed: 1}, nil, nil)
	dev.Boot()
	dev.RunFor(5 * time.Millisecond)
	start := dev.Now()
	cres.Launch(dev, attack.FirmwareTamper{})
	dev.RunFor(10 * time.Millisecond)

	rep := dev.ForensicReport(start, dev.Now())
	fmt.Printf("chain intact: %v\n", rep.ChainIntact)
	fmt.Printf("alerts: %v, responses: %v\n", rep.Alerts > 0, rep.Responses > 0)
	// Output:
	// chain intact: true
	// alerts: true, responses: true
}

// ExampleDevice_baseline contrasts the passive architecture.
func ExampleDevice_baseline() {
	dev, _ := cres.NewDevice(scenario.DeviceSpec{Name: "legacy-unit", Arch: scenario.ArchBaseline, Seed: 1}, nil, nil)
	dev.Boot()
	cres.Launch(dev, attack.SecureProbe{})
	dev.RunFor(10 * time.Millisecond)

	fmt.Printf("has security manager: %v\n", dev.SSM != nil)
	fmt.Printf("attack left a trace: %v\n", dev.PlainLog.Len() > 1)
	// Output:
	// has security manager: false
	// attack left a trace: false
}

// ExamplePrincipleFor shows the Figure 1 function/principle association.
func ExamplePrincipleFor() {
	for _, f := range landscape.AllFunctions() {
		fmt.Printf("%s -> %s\n", f, landscape.PrincipleFor(f))
	}
	// Output:
	// IDENTIFY -> Managing security risks
	// PROTECT -> Protecting against cyber attack
	// DETECT -> Detecting cyber security incidents
	// RESPOND -> Minimising the impact of cyber security incidents
	// RECOVER -> Minimising the impact of cyber security incidents
}

// Example_attackSuite lists the scenario catalogue.
func Example_attackSuite() {
	for _, sc := range attack.All()[:3] {
		fmt.Println(sc.Name())
	}
	fmt.Printf("... %d scenarios total\n", len(attack.All()))
	// Output:
	// secure-probe
	// firmware-tamper
	// firmware-downgrade
	// ... 11 scenarios total
}

// Example_memoryMap shows the reference SoC's isolated regions.
func Example_memoryMap() {
	dev, _ := cres.NewDevice(scenario.DeviceSpec{Name: "map-demo", Seed: 1}, nil, nil)
	for _, r := range dev.SoC.Mem.Regions() {
		if r.World == hw.WorldIsolated {
			fmt.Printf("%s: %s world\n", r.Name, r.World)
		}
	}
	// Output:
	// ssm-sram: isolated world
	// evidence-store: isolated world
}
