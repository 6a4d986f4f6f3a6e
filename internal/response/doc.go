// Package response implements the paper's Characteristic 3: the Active
// Response Manager. It executes the response and recovery strategies
// selected by the System Security Manager, turning decisions into
// concrete platform countermeasures: physically isolating a compromised
// bus initiator behind a hardware gate, halting a core, locking an
// actuator to its fail-safe value, and flushing or partitioning the
// shared cache.
//
// It also hosts the graceful-degradation controller: a registry of the
// device's services with criticality flags, so that isolating a
// compromised resource takes down only the services that depend on it
// "while maintaining critical services in next-generation critical
// infrastructure" (Section V).
//
// Beyond the device boundary, the manager executes the cooperative
// countermeasure of a networked fleet (network.go): quarantining the
// M2M link towards a neighbour whose gossiped evidence says it is
// compromised, and restoring it after operator recovery. Every action —
// local or cooperative — is recorded through the same callback, so the
// countermeasure history is part of the evidence stream.
//
// Determinism contract: the manager holds no timers and draws no
// randomness; actions execute synchronously in the caller's event
// order, so History is a pure function of the SSM's decision sequence.
package response
