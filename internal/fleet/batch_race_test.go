package fleet

import (
	"reflect"
	"sync"
	"testing"
)

// TestScratchEntropyIsolation pins the contract the batched hot path
// leans on: every appraiseScratch owns PRIVATE DeterministicEntropy
// readers (device-state entropy, re-keyed per epoch from an
// engine-level root, and the batch verifier's coefficient stream) plus
// its own BatchVerifier. If any of that state were shared across
// concurrent RunShard calls — one Reset racing another, or two shards
// interleaving reads from one coefficient stream — the race detector
// would fire here AND
// the per-shard summaries would diverge from their serial values.
//
// The check is exact: each shard's concurrent Summary must deep-equal
// the one a serial pass produced, anomaly sample and all.
func TestScratchEntropyIsolation(t *testing.T) {
	cfg := refConfig(2048)
	cfg.BatchSize, cfg.ShardSize = 64, 128 // 16 shards, multiple batches each
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: one shard at a time, nothing to race with.
	serial := make([]Summary, eng.NumShards())
	for i := range serial {
		s, err := eng.RunShard(i)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = s
	}

	// Concurrent pass: every shard at once, several times over, so
	// scratches for different shards are live simultaneously and any
	// shared reader or verifier state gets hammered from all sides.
	for trial := 0; trial < 3; trial++ {
		concurrent := make([]Summary, eng.NumShards())
		var wg sync.WaitGroup
		for i := range concurrent {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, err := eng.RunShard(i)
				if err != nil {
					t.Error(err)
					return
				}
				concurrent[i] = s
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i := range concurrent {
			if !reflect.DeepEqual(concurrent[i], serial[i]) {
				t.Fatalf("trial %d shard %d: concurrent summary diverged from serial\nconcurrent: %+v\nserial:     %+v",
					trial, i, concurrent[i], serial[i])
			}
		}
	}
}
