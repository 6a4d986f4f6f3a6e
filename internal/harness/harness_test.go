package harness

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestShardSeedDeterministic(t *testing.T) {
	for shard := 0; shard < 100; shard++ {
		a := ShardSeed(7, shard)
		b := ShardSeed(7, shard)
		if a != b {
			t.Fatalf("ShardSeed(7, %d) unstable: %d vs %d", shard, a, b)
		}
	}
}

func TestShardSeedDistinctAcrossShards(t *testing.T) {
	const shards = 10_000
	seen := make(map[int64]int, shards)
	for shard := 0; shard < shards; shard++ {
		s := ShardSeed(7, shard)
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d share seed %d", prev, shard, s)
		}
		seen[s] = shard
	}
}

func TestShardSeedDistinctAcrossRoots(t *testing.T) {
	collisions := 0
	for root := int64(0); root < 100; root++ {
		if ShardSeed(root, 0) == ShardSeed(root+1, 0) {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("%d adjacent roots collide on shard 0", collisions)
	}
	// A shifted root must not merely shift the stream: shard i of root r
	// must differ from shard i+1 of root r-1 style aliasing.
	if ShardSeed(1, 1) == ShardSeed(2, 0) {
		t.Fatal("seed streams alias across (root, shard) pairs")
	}
}

func TestMapSeedsMatchShardSeed(t *testing.T) {
	got, err := Map(NewPool(4), 16, 99, func(s Shard) (int64, error) {
		if s.Count != 16 {
			return 0, fmt.Errorf("shard %d saw count %d", s.Index, s.Count)
		}
		return s.Seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range got {
		if want := ShardSeed(99, i); seed != want {
			t.Errorf("shard %d seed = %d, want %d", i, seed, want)
		}
	}
}

// TestMapMergesInShardOrderUnderJitter gives early shards the longest
// host-time work, so under a parallel pool the completion order is the
// reverse of the submission order — the merged result must still come
// back in shard order.
func TestMapMergesInShardOrderUnderJitter(t *testing.T) {
	const n = 12
	got, err := Map(NewPool(n), n, 7, func(s Shard) (int, error) {
		time.Sleep(time.Duration(n-s.Index) * 2 * time.Millisecond)
		return s.Index * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("result[%d] = %d; merge order broken: %v", i, v, got)
		}
	}
}

func TestMapSerialMatchesParallel(t *testing.T) {
	job := func(s Shard) (int64, error) { return s.Seed ^ int64(s.Index), nil }
	serial, err := Map(NewPool(1), 32, 7, job)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(NewPool(8), 32, 7, job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("shard %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

// TestMapReturnsLowestShardError injects failures into several shards
// with the later shard finishing first; the reported error must be the
// lowest-indexed one no matter the completion order.
func TestMapReturnsLowestShardError(t *testing.T) {
	errLow := errors.New("shard 3 failed")
	errHigh := errors.New("shard 9 failed")
	_, err := Map(NewPool(12), 12, 7, func(s Shard) (int, error) {
		switch s.Index {
		case 3:
			time.Sleep(20 * time.Millisecond)
			return 0, errLow
		case 9:
			return 0, errHigh
		}
		return s.Index, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-indexed shard's error", err)
	}
}

func TestMapNilPoolRunsSerially(t *testing.T) {
	order := make([]int, 0, 8)
	_, err := Map[int](nil, 8, 7, func(s Shard) (int, error) {
		order = append(order, s.Index) // safe: serial execution only
		return s.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution order = %v", order)
		}
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("NewPool(0) must select at least one worker")
	}
	if NewPool(-3).Workers() < 1 {
		t.Fatal("NewPool(-3) must select at least one worker")
	}
	if got := NewPool(5).Workers(); got != 5 {
		t.Fatalf("NewPool(5).Workers() = %d", got)
	}
}
