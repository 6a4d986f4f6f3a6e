// Package harness is the sharded parallel experiment runner: it fans
// independent simulation runs across a worker pool and merges their
// results in shard order, so experiment output is byte-identical
// regardless of the degree of parallelism or GOMAXPROCS.
//
// Determinism rests on two invariants. First, every shard gets its own
// sim.Engine seeded with ShardSeed(rootSeed, shardIndex) — a pure
// function of the root seed and the shard's position, never of
// scheduling order. Second, Map collects results into a slice indexed by
// shard, so the merge order is the submission order even when workers
// finish in arbitrary order.
//
// A Crew (crew.go) lends one running shard the workers its fan-out
// leaves idle: the shard splits a stage into indexed tasks that it and
// the helpers claim from one counter, and waits only for tasks a
// helper has claimed, never for a helper to start. The shard split
// stays a function of the input only; the split inside a shard may
// follow the pool when, as in the fleet's curve sums, it only regroups
// exact pieces whose combination order is fixed.
//
// The package also hosts the experiment registry (registry.go): the
// experiments register themselves once, in print order, and the
// benchmark CLI iterates the registry instead of hand-rolling a loop per
// experiment. Each run's Outcome carries its Metrics (metric.go), the
// one record type of the cresbench -json report.
package harness
