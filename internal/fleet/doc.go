// Package fleet is the streaming fleet-attestation engine: it appraises
// fleets of millions of simulated devices in memory bounded by one
// batch-verify flush of at most max(BatchSize, 4096) devices per
// running shard, never a fleet. A fleet is split into verifier shards
// (the distributed verifier tier an operator deploys); each shard
// streams its devices through fixed-size batches and folds every
// appraisal into a mergeable Summary once the flush that settles its
// signature concludes — no per-device record survives that flush.
//
// Everything a device is — its mix share, its firmware measurement,
// whether it is tampered, its network jitter, its challenge nonce, its
// anomaly-sample priority — is a pure function of (fleet seed, global
// device index) through harness.ShardSeed. Shard and batch boundaries
// therefore never change any device's fate, Summary.Merge is associative
// and commutative, and fleet tables are byte-identical at any
// parallelism.
//
// All execution funnels through (*Engine).RunParallel, which fans
// RunShard across a harness.Pool and merges shard summaries in shard
// order; Run is the nil-pool serial case of the same method. Inside a
// shard, appraisal runs on a pooled per-shard scratch: boot variants
// are compiled once per engine (event-log replay, canonical quote-body
// template, precomputed policy verdict) and the provisioning-epoch AIK
// is derived once per batch from the entropy root at the batch's first
// global index. The batch verifier settles as many whole epochs as fit
// in 4096 signatures in one flush, and a larger epoch alone. Pooled
// state is restricted to quantities the Summary cannot observe, so
// batching is invisible in every output.
//
// Tree (experiment E15) extends attestation to the verifiers
// themselves: shards become the leaves of a depth × fan-out hierarchy
// in which every node signs the canonical encoding of its merged
// Summary chained to its children's signatures, and every parent
// batch-verifies, re-merges and byte-compares its children's claims
// before re-signing. A verifier that forges its merge, tampers a
// record in transit, or misreports its evidence is detected and
// attributed by its direct parent (or, for the root, by the
// operator), excised, and healed around — the root summary equals the
// honest flat-engine summary. Node keys derive from dedicated
// per-purpose seed roots, so tree results are as deterministic as the
// engine's.
package fleet
