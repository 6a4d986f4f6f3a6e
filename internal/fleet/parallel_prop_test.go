package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"cres/internal/cryptoutil"
	"cres/internal/harness"
)

// TestRunParallelEqualsSerialProperty is the property behind the
// unified run API: for any configuration, RunParallel(pool) merges
// shard summaries into exactly the Summary serial Run produces —
// every per-device quantity derives from (seed, global index), so
// pool width, shard size and batch size are pure scheduling choices.
// Trial shapes are drawn from a fixed-seed generator, so the test is
// deterministic while still sweeping odd sizes, shard/batch
// misalignments and both tamper models.
func TestRunParallelEqualsSerialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	for trial := 0; trial < 12; trial++ {
		cfg := Config{
			Seed:      rng.Int63n(1 << 30),
			Size:      1 + rng.Intn(3000),
			BatchSize: 1 + rng.Intn(300),
			ShardSize: 1 + rng.Intn(1200),
			SampleK:   1 + rng.Intn(8),
		}
		if rng.Intn(2) == 0 {
			// Deterministic tamper rule on the single reference share.
			cfg.Shares = refConfig(cfg.Size).Shares
			cfg.TamperEvery = 2 + rng.Intn(16)
			cfg.TamperOffset = rng.Intn(cfg.TamperEvery)
		} else {
			// Mixed shares with per-share probabilistic tamper rates.
			cfg.Shares = []Share{
				{Label: "a", Firmware: cryptoutil.Sum([]byte("fw-a")), FirmwareDesc: "fw a",
					Fraction: 0.75, TamperRate: rng.Float64() / 2},
				{Label: "b", Firmware: cryptoutil.Sum([]byte("fw-b")), FirmwareDesc: "fw b",
					Fraction: 0.25, TamperRate: rng.Float64() / 2},
			}
		}
		width := 1 + rng.Intn(8)

		eng, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		serial, err := eng.Run()
		if err != nil {
			t.Fatalf("trial %d: serial run: %v", trial, err)
		}
		par, err := eng.RunParallel(harness.NewPool(width))
		if err != nil {
			t.Fatalf("trial %d: parallel run (width %d): %v", trial, width, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("trial %d (size=%d batch=%d shard=%d width=%d): summaries diverge\nserial:   %+v\nparallel: %+v",
				trial, cfg.Size, cfg.BatchSize, cfg.ShardSize, width, serial, par)
		}
	}
}

// TestRunParallelSplitShardParity holds the split inside a shard to
// the serial bytes: one- and two-shard fleets run at pool widths 1, 2,
// 3 and 8, which lend each shard zero to seven helpers, and the merged
// Summary's canonical encoding must equal that of serial RunShard
// calls merged in shard order.
func TestRunParallelSplitShardParity(t *testing.T) {
	type shape struct{ size, shard int }
	shapes := []shape{{4, 4}, {255, 255}, {256, 256}, {1024, 1024}, {5000, 5000}, {5000, 0}}
	for _, sh := range shapes {
		cfg := refConfig(sh.size)
		cfg.ShardSize = sh.shard
		cfg.BatchSize = min(DefaultBatchSize, sh.size)
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var serial Summary
		for i := 0; i < eng.NumShards(); i++ {
			s, err := eng.RunShard(i)
			if err != nil {
				t.Fatal(err)
			}
			serial = serial.Merge(s)
		}
		want := serial.AppendCanonical(nil)
		for _, width := range []int{1, 2, 3, 8} {
			got, err := eng.RunParallel(harness.NewPool(width))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.AppendCanonical(nil), want) {
				t.Fatalf("size %d in %d shards, width %d: summary differs from serial RunShard\nsplit:  %+v\nserial: %+v",
					sh.size, eng.NumShards(), width, got, serial)
			}
		}
	}
}
