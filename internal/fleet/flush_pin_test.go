package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestFlushSpanShapesPinned pins the canonical Summary bytes of two
// one-shard fleets whose epochs a 4096-entry batch-verify flush splits
// unevenly: 9000 devices in 300-device epochs, where the cap falls
// mid-shard and the last flush is partial, and 5000 devices in one
// epoch larger than the cap. Verdicts do not depend on how entries are
// grouped into flushes, so these digests must never move when the
// flush span changes.
func TestFlushSpanShapesPinned(t *testing.T) {
	cases := []struct {
		size, batch int
		seed        int64
		want        string
	}{
		{9000, 300, 7, "07102502d9dfbc373de7136c0ab17acb1c37772b62c9cfc97862d8e3ac699f33"},
		{9000, 300, 1234, "43f0829e5ffafe4cff3cd0bd51647b35c293a2b499594a79b1ac5c55103ecc5b"},
		{5000, 5000, 7, "e268f106b997589b7ef967906070eaa85be49efe0de0767b5f78de853072a942"},
		{5000, 5000, 1234, "af1311b756e456e644988d45b5544c53b18e250b4bb5e2b6c63cceb77709f762"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%d/%d/seed%d", c.size, c.batch, c.seed), func(t *testing.T) {
			cfg := refConfig(c.size)
			cfg.Seed = c.seed
			cfg.BatchSize, cfg.ShardSize = c.batch, c.size
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := eng.RunShard(0)
			if err != nil {
				t.Fatal(err)
			}
			d := sha256.Sum256(sum.AppendCanonical(nil))
			if got := hex.EncodeToString(d[:]); got != c.want {
				t.Fatalf("summary digest %s, want %s", got, c.want)
			}
		})
	}
}
