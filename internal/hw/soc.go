package hw

import (
	"fmt"
	"time"

	"cres/internal/sim"
)

// Canonical region names of the reference SoC memory map.
const (
	RegionBootROM    = "boot-rom"
	RegionSlotA      = "flash-slot-a"
	RegionSlotB      = "flash-slot-b"
	RegionNV         = "nv-storage"
	RegionSRAM       = "sram"
	RegionSecureSRAM = "secure-sram"
	RegionMMIO       = "mmio"
	RegionSSMSRAM    = "ssm-sram"
	RegionEvidence   = "evidence-store"
)

// Reference memory map base addresses and sizes.
const (
	AddrBootROM    Addr = 0x0000_0000
	AddrSlotA      Addr = 0x0010_0000
	AddrSlotB      Addr = 0x0018_0000
	AddrNV         Addr = 0x0020_0000
	AddrSRAM       Addr = 0x2000_0000
	AddrSecureSRAM Addr = 0x3000_0000
	AddrMMIO       Addr = 0x4000_0000
	AddrSSMSRAM    Addr = 0x5000_0000
	AddrEvidence   Addr = 0x6000_0000

	SizeBootROM    uint64 = 64 << 10
	SizeSlot       uint64 = 512 << 10
	SizeNV         uint64 = 64 << 10
	SizeSRAM       uint64 = 1 << 20
	SizeSecureSRAM uint64 = 256 << 10
	SizeMMIO       uint64 = 64 << 10
	SizeSSMSRAM    uint64 = 256 << 10
	SizeEvidence   uint64 = 512 << 10
)

// The reference DMA engine moves dmaChunk-byte bursts, one every
// dmaPerChunk.
const (
	dmaChunk    = 256
	dmaPerChunk = 200 * time.Nanosecond
)

// SoCConfig parameterises NewSoC. Every SoC has a 64-set, 4-way
// last-level cache with 64-byte lines and a DMA engine moving 256-byte
// bursts every 200ns.
type SoCConfig struct {
	// WithSSMCore adds the physically isolated security-manager core and
	// its private memory (the paper's Characteristic 1). The baseline
	// architecture omits it.
	WithSSMCore bool
}

// SoC is the assembled reference platform.
type SoC struct {
	Engine *sim.Engine
	Mem    *Memory
	Bus    *Bus
	Cache  *Cache

	// AppCore is the general-purpose application processor (normal
	// world). The TEE's secure world runs on this same physical core —
	// deliberately, per the Section IV critique.
	AppCore *Core
	// SSMCore is the physically isolated security-manager core, nil for
	// the baseline architecture.
	SSMCore *Core
	// DMA is the platform DMA engine.
	DMA *DMAEngine

	// Environmental sensors (voltage, clock, temperature).
	Voltage *EnvSensor
	Clock   *EnvSensor
	Temp    *EnvSensor
}

// NewSoC builds the reference SoC on the given engine.
func NewSoC(engine *sim.Engine, cfg SoCConfig) (*SoC, error) {
	mem := &Memory{}
	type regionSpec struct {
		name  string
		base  Addr
		size  uint64
		perm  Perm
		world World
	}
	specs := []regionSpec{
		{RegionBootROM, AddrBootROM, SizeBootROM, PermRead | PermExec, WorldNormal},
		{RegionSlotA, AddrSlotA, SizeSlot, PermRead | PermWrite | PermExec, WorldNormal},
		{RegionSlotB, AddrSlotB, SizeSlot, PermRead | PermWrite | PermExec, WorldNormal},
		{RegionNV, AddrNV, SizeNV, PermRead | PermWrite, WorldSecure},
		{RegionSRAM, AddrSRAM, SizeSRAM, PermRead | PermWrite | PermExec, WorldNormal},
		{RegionSecureSRAM, AddrSecureSRAM, SizeSecureSRAM, PermRead | PermWrite | PermExec, WorldSecure},
		{RegionMMIO, AddrMMIO, SizeMMIO, PermRead | PermWrite, WorldNormal},
	}
	if cfg.WithSSMCore {
		specs = append(specs,
			regionSpec{RegionSSMSRAM, AddrSSMSRAM, SizeSSMSRAM, PermRead | PermWrite | PermExec, WorldIsolated},
			regionSpec{RegionEvidence, AddrEvidence, SizeEvidence, PermRead | PermWrite, WorldIsolated},
		)
	}
	for _, s := range specs {
		if _, err := mem.AddRegion(s.name, s.base, s.size, s.perm, s.world); err != nil {
			return nil, fmt.Errorf("hw: build soc: %w", err)
		}
	}

	bus := NewBus(engine, mem)
	cache, err := newCache(defaultCacheConfig())
	if err != nil {
		return nil, fmt.Errorf("hw: build soc: %w", err)
	}
	dma, err := NewDMAEngine(engine, bus, "dma0", WorldNormal, dmaChunk, dmaPerChunk)
	if err != nil {
		return nil, fmt.Errorf("hw: build soc: %w", err)
	}

	soc := &SoC{
		Engine:  engine,
		Mem:     mem,
		Bus:     bus,
		Cache:   cache,
		AppCore: NewCore(engine, bus, "app-core", WorldNormal),
		DMA:     dma,
		Voltage: NewEnvSensor(engine, SensorVoltage, "vdd-core", 1.00, 0.02),
		Clock:   NewEnvSensor(engine, SensorClock, "pll-main", 800.0, 4.0),
		Temp:    NewEnvSensor(engine, SensorTemperature, "die-temp", 45.0, 1.5),
	}
	if cfg.WithSSMCore {
		soc.SSMCore = NewCore(engine, bus, "ssm-core", WorldIsolated)
	}
	return soc, nil
}

// EnvSensors returns the three environmental sensors.
func (s *SoC) EnvSensors() []*EnvSensor {
	return []*EnvSensor{s.Voltage, s.Clock, s.Temp}
}
