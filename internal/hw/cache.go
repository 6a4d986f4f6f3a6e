package hw

import (
	"fmt"
	"time"
)

// Cache models a set-associative last-level cache physically shared
// between the normal and secure worlds. Sharing is deliberate: Section IV
// of the paper critiques exactly this ("both secure and non-secure
// processes share the same physical memory resource"), and the covert
// cache channel experiment (E10) exploits it.
//
// The model is behavioural: an access either hits (low latency) or misses
// (high latency), and replacement is LRU within a set. Timing is exposed
// so a prime+probe attacker — and the timing anomaly monitor — can
// observe it.
type Cache struct {
	sets        int
	ways        int
	lineSize    uint64
	hitLatency  time.Duration
	missLatency time.Duration

	// lines[set] is ordered most-recently-used first.
	lines [][]cacheLine

	partitioned bool // when true, worlds evict only their own lines

	stats CacheStats
}

type cacheLine struct {
	tag   uint64
	valid bool
	world World
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// CrossWorldEvictions counts lines of one world evicted by an
	// access from the other — the covert-channel transmission medium.
	CrossWorldEvictions uint64
}

// CacheConfig parameterises NewCache.
type CacheConfig struct {
	Sets        int
	Ways        int
	LineSize    uint64
	HitLatency  time.Duration
	MissLatency time.Duration
}

// DefaultCacheConfig returns a small embedded-class last-level cache:
// 64 sets, 4 ways, 64-byte lines, 2ns hit, 60ns miss.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{Sets: 64, Ways: 4, LineSize: 64, HitLatency: 2 * time.Nanosecond, MissLatency: 60 * time.Nanosecond}
}

// NewCache creates a cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.LineSize == 0 {
		return nil, fmt.Errorf("hw: invalid cache geometry %+v", cfg)
	}
	c := &Cache{
		sets:        cfg.Sets,
		ways:        cfg.Ways,
		lineSize:    cfg.LineSize,
		hitLatency:  cfg.HitLatency,
		missLatency: cfg.MissLatency,
		lines:       make([][]cacheLine, cfg.Sets),
	}
	for i := range c.lines {
		c.lines[i] = make([]cacheLine, 0, cfg.Ways)
	}
	return c, nil
}

// Sets returns the number of cache sets.
func (c *Cache) Sets() int { return c.sets }

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() uint64 { return c.lineSize }

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(addr Addr) int {
	return int((uint64(addr) / c.lineSize) % uint64(c.sets))
}

// Access touches addr from world w and returns the access latency and
// whether it hit.
func (c *Cache) Access(addr Addr, w World) (time.Duration, bool) {
	c.stats.Accesses++
	set := c.SetIndex(addr)
	tag := uint64(addr) / c.lineSize / uint64(c.sets)
	lines := c.lines[set]

	for i, ln := range lines {
		if ln.valid && ln.tag == tag && (!c.partitioned || ln.world == w) {
			// Hit: move to MRU position.
			copy(lines[1:i+1], lines[:i])
			ln.world = w
			lines[0] = ln
			c.stats.Hits++
			return c.hitLatency, true
		}
	}

	// Miss: insert at MRU, evicting LRU if the set is full.
	c.stats.Misses++
	newLine := cacheLine{tag: tag, valid: true, world: w}
	if len(lines) < c.ways {
		lines = append(lines, cacheLine{})
		copy(lines[1:], lines[:len(lines)-1])
		lines[0] = newLine
	} else {
		victimIdx := len(lines) - 1
		if c.partitioned {
			// Evict only own-world lines; if none, replace LRU of own
			// world or fall back to LRU overall (set fully foreign —
			// treat as uncached access without eviction).
			victimIdx = -1
			for i := len(lines) - 1; i >= 0; i-- {
				if lines[i].world == w {
					victimIdx = i
					break
				}
			}
			if victimIdx < 0 {
				c.lines[set] = lines
				return c.missLatency, false
			}
		}
		victim := lines[victimIdx]
		if victim.valid && victim.world != w {
			c.stats.CrossWorldEvictions++
		}
		copy(lines[1:victimIdx+1], lines[:victimIdx])
		lines[0] = newLine
	}
	c.lines[set] = lines
	return c.missLatency, false
}

// ProbeSet measures how many of the first n line-granular probes into a
// set miss, without polluting statistics attribution: it is just n
// Accesses at distinct tags. The covert-channel receiver uses it.
func (c *Cache) ProbeSet(set int, w World, n int) (misses int) {
	for i := 0; i < n; i++ {
		// Construct an address in the target set with a distinct tag.
		addr := Addr((uint64(i+1)*uint64(c.sets) + uint64(set)) * c.lineSize)
		if _, hit := c.Access(addr, w); !hit {
			misses++
		}
	}
	return misses
}

// FlushAll invalidates the entire cache (response countermeasure).
func (c *Cache) FlushAll() {
	for i := range c.lines {
		c.lines[i] = c.lines[i][:0]
	}
}

// SetPartitioned enables or disables way-partitioning between worlds, the
// architectural countermeasure that closes the covert channel at the cost
// of effective capacity.
func (c *Cache) SetPartitioned(on bool) { c.partitioned = on }

// Partitioned reports whether world-partitioning is enabled.
func (c *Cache) Partitioned() bool { return c.partitioned }
