package harness

import (
	"runtime"
	"sync"
)

// ShardSeed derives the engine seed for one shard from the root seed.
// It is a SplitMix64 finalizer over the (root, shard) pair: cheap,
// stable across runs and platforms, and avalanching, so adjacent shards
// get statistically unrelated streams while the same (root, shard) pair
// always yields the same seed.
func ShardSeed(root int64, shard int) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*(uint64(shard)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Shard identifies one independent simulation run within a fan-out.
type Shard struct {
	// Index is the shard's position in [0, Count).
	Index int
	// Count is the total number of shards in this fan-out.
	Count int
	// Seed is ShardSeed(rootSeed, Index) — the engine seed this shard
	// must use for its private sim.Engine.
	Seed int64
}

// Pool bounds the number of simulation runs executing concurrently.
// A Pool carries no goroutines of its own; each Map call spins up at
// most Workers() workers for its own duration, so nested Map calls
// cannot deadlock on a shared worker set.
type Pool struct {
	workers int
}

// NewPool creates a pool running up to workers simulations at once.
// workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Map runs n independent jobs across the pool and returns their results
// in shard order. Each job receives its Shard (index, count, derived
// seed) and must not share mutable state with other shards.
//
// Every shard runs to completion even when another shard fails; on
// failure Map returns the error of the lowest-indexed failing shard, so
// the reported error is deterministic under any worker interleaving.
// A nil pool runs serially.
func Map[T any](p *Pool, n int, rootSeed int64, job func(Shard) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)

	workers := 1
	if p != nil {
		workers = p.workers
	}
	if workers > n {
		workers = n
	}

	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = job(Shard{Index: i, Count: n, Seed: ShardSeed(rootSeed, i)})
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					results[i], errs[i] = job(Shard{Index: i, Count: n, Seed: ShardSeed(rootSeed, i)})
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
