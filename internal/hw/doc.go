// Package hw models the System-on-Chip hardware platform the paper's
// architecture runs on: CPU cores, a bus/interconnect carrying
// transactions tagged with security attributes (the TrustZone-style
// NS bit), memory regions with permissions, a DMA engine, a shared cache
// (the microarchitectural side-channel surface of Section IV), peripheral
// sensors and actuators, and environmental sensors.
//
// The model is behavioural, not cycle-accurate: it captures exactly the
// properties the paper reasons about — which initiators can reach which
// resources, what a bus-level monitor can observe, and which resources
// are physically shared versus isolated.
//
// Determinism contract: every component advances through the shared
// sim.Engine; transaction order, fault order and sensor readings are
// pure functions of the engine seed and the workload schedule.
package hw
