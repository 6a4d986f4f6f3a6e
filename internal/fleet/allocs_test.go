package fleet

import (
	"testing"

	"cres/internal/harness"
)

// TestBatchLoopAllocsPerDeviceO1 gates the batched appraise scratch's
// memory behavior: the steady-state batch loop allocates O(1) per
// device — today ~0.027 (E8's allocs_per_device), all of it
// per-shard scratch setup and per-epoch key derivation, with the boot
// variants, the epoch's quote bodies, signatures and hints, the
// provisioning-epoch key material and the batch verifier's flush
// storage pooled in the per-shard scratch — independent of fleet,
// shard and batch size.
// A per-device cost that grew with any of those would mean the engine
// is quietly retaining per-device state, the exact failure mode the
// streaming design exists to make impossible. The split path is held
// to the same bounds: a one-shard fleet run on a pool of two lends its
// shard a helper, so per-task closures or per-epoch helper state would
// show as growth.
func TestBatchLoopAllocsPerDeviceO1(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	perDevice := func(size int, run func(*Engine) error) float64 {
		cfg := refConfig(size)
		cfg.ShardSize = size // one shard, so RunShard covers the fleet
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if err := run(eng); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(size)
	}
	serial := func(eng *Engine) error { _, err := eng.RunShard(0); return err }
	pool := harness.NewPool(2)
	split := func(eng *Engine) error { _, err := eng.RunParallel(pool); return err }

	small := perDevice(256, serial)  // one batch
	large := perDevice(1024, serial) // four batches
	lent := perDevice(1024, split)   // four batches, with a helper
	// The absolute budget: the batched hot path allocates only for
	// per-batch key derivation and per-shard scratch setup, 0.07–0.23
	// per device at these sizes (Go 1.24, with and without -race). A
	// budget under one fails any allocation made once per device,
	// while leaving the fixed costs several times their headroom.
	if small >= 1 || large >= 1 || lent >= 1 {
		t.Fatalf("batch loop allocates %.2f (256 dev) / %.2f (1024 dev) / %.2f (1024 dev, split) per device, want under 1", small, large, lent)
	}
	// The O(1) claim: quadrupling the devices streamed through the same
	// scratch must not grow the per-device cost. (It usually shrinks:
	// fixed shard overhead amortizes away.)
	if large > small*1.25 || lent > small*1.25 {
		t.Fatalf("per-device allocations grow with fleet size: %.1f at 256 vs %.1f at 1024 (%.1f split)", small, large, lent)
	}
}
