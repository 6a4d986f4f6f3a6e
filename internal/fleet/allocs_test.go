package fleet

import (
	"testing"
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
// streaming design exists to make impossible.
func TestBatchLoopAllocsPerDeviceO1(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	perDevice := func(size int) float64 {
		cfg := refConfig(size)
		cfg.ShardSize = size // one shard, so RunShard covers the fleet
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := eng.RunShard(0); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(size)
	}

	small := perDevice(256)  // one batch
	large := perDevice(1024) // four batches
	// The absolute budget: the batched hot path allocates only for
	// per-batch key derivation and per-shard scratch setup. 4 leaves
	// headroom for go runtime drift without masking a return to
	// per-device TPM/quote/log allocation (~30/device before the
	// scratch landed).
	if small > 4 || large > 4 {
		t.Fatalf("batch loop allocates %.1f (256 dev) / %.1f (1024 dev) per device, budget 4", small, large)
	}
	// The O(1) claim: quadrupling the devices streamed through the same
	// scratch must not grow the per-device cost. (It usually shrinks:
	// fixed shard overhead amortizes away.)
	if large > small*1.25 {
		t.Fatalf("per-device allocations grow with fleet size: %.1f at 256 vs %.1f at 1024", small, large)
	}
}
