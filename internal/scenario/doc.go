// Package scenario is the declarative scenario layer: device shapes,
// staged attack plans and whole campaigns expressed as data, compiled
// into validated, runnable form — the same move internal/threatmodel
// makes when it compiles abstract threats into concrete controls.
//
// The spec types mirror the axes of the scenario space:
//
//   - DeviceSpec describes a device's shape (architecture, detection
//     mode, firmware, boot options);
//   - AttackPlan composes registered attack scenarios into an ordered,
//     timed intrusion (probe → escalate → destroy evidence);
//   - CampaignSpec crosses the reference CRES/baseline device pair ×
//     attacks × seeds into a matrix of independent runs over the
//     sharded harness;
//   - FleetSpec describes a streaming-attestation fleet as device-mix
//     fractions plus a tamper distribution;
//   - TopologySpec describes how a fleet is wired over the M2M fabric
//     (ring/star/mesh/random), the graph the E13 worm campaign and the
//     cooperative response fight over;
//   - TreeSpec describes a verifier hierarchy over a streaming fleet
//     (depth × fan-out over an embedded FleetSpec), the shape the E15
//     hierarchical re-attestation sweep runs.
//
// Each has a Compile step that validates the spec, fills defaults and
// returns a Compiled* value the layers above execute. Compilation never
// touches a simulator: a compiled spec is still pure data plus
// ready-to-launch closures, so specs can be validated, enumerated and
// diffed without running anything. The root cres package assembles
// devices from compiled DeviceSpecs; the experiment drivers and CLIs
// enumerate compiled campaigns. Adding a new scenario shape is a
// one-file change here or in internal/attack — no experiment or CLI
// edits required.
//
// Determinism contract: compilation is a pure function of the spec —
// including the random topology kind, whose wiring derives from
// harness.ShardSeed(Seed, node), never from runtime state — so the
// same spec always enumerates the same cells, shards and graphs.
package scenario
