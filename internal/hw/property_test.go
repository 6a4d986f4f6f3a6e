package hw

import (
	"testing"
	"testing/quick"

	"cres/internal/sim"
)

// Property: in an unpartitioned cache, accessing up to `ways` distinct
// lines of one set and immediately re-accessing them always hits — LRU
// never evicts within the working-set bound.
func TestPropertyCacheLRUWorkingSet(t *testing.T) {
	f := func(setSel uint8, tags [4]uint16) bool {
		c, err := newCache(cacheConfig{Sets: 16, Ways: 4, LineSize: 64, HitLatency: 1, MissLatency: 10})
		if err != nil {
			return false
		}
		set := int(setSel) % 16
		// Deduplicate tags (duplicates would shrink the working set).
		seen := map[uint16]bool{}
		var uniq []uint16
		for _, tg := range tags {
			if !seen[tg] {
				seen[tg] = true
				uniq = append(uniq, tg)
			}
		}
		addr := func(tag uint16) Addr {
			return Addr((uint64(tag)*16 + uint64(set)) * 64)
		}
		for _, tg := range uniq {
			c.Access(addr(tg), WorldNormal)
		}
		for _, tg := range uniq {
			if _, hit := c.Access(addr(tg), WorldNormal); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cache statistics are consistent: hits + misses == accesses.
func TestPropertyCacheStatsConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := newCache(cacheConfig{Sets: 8, Ways: 2, LineSize: 64, HitLatency: 1, MissLatency: 10})
		if err != nil {
			return false
		}
		for _, op := range ops {
			world := WorldNormal
			if op%3 == 0 {
				world = WorldSecure
			}
			c.Access(Addr(op)*64, world)
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses && st.Accesses == uint64(len(ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: partitioned caches never produce cross-world evictions, for
// any interleaving of worlds and addresses.
func TestPropertyPartitionIsolation(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := newCache(cacheConfig{Sets: 4, Ways: 2, LineSize: 64, HitLatency: 1, MissLatency: 10})
		if err != nil {
			return false
		}
		c.SetPartitioned(true)
		for _, op := range ops {
			world := WorldNormal
			if op%2 == 0 {
				world = WorldSecure
			}
			c.Access(Addr(op)*64, world)
		}
		return c.Stats().CrossWorldEvictions == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: bus access control is sound — a normal-world initiator can
// never read back data from a secure or isolated region, whatever the
// address within those regions.
func TestPropertyWorldSoundness(t *testing.T) {
	e := sim.New(1)
	soc, err := NewSoC(e, SoCConfig{WithSSMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	cpu := soc.AppCore
	f := func(off uint16, size uint8) bool {
		n := uint64(size%64) + 1
		for _, base := range []Addr{AddrSecureSRAM, AddrSSMSRAM, AddrEvidence, AddrNV} {
			a := base + Addr(uint64(off)%1024)
			if _, err := cpu.Read(a, n); err == nil {
				return false
			}
			if cpu.Write(a, make([]byte, n)) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two identical SoC runs produce identical bus statistics —
// the simulator is deterministic end to end.
func TestPropertySoCDeterminism(t *testing.T) {
	run := func(seed int64, ops []uint16) BusStats {
		e := sim.New(seed)
		soc, err := NewSoC(e, SoCConfig{WithSSMCore: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			addr := AddrSRAM + Addr(uint64(op)%SizeSRAM)
			if op%5 == 0 {
				soc.AppCore.Write(addr, []byte{byte(op)})
			} else {
				soc.AppCore.Read(addr, 1)
			}
			// Mix in some randomness from the engine, as workloads do.
			e.RNG().Intn(100)
		}
		return soc.Bus.Stats()
	}
	f := func(seed int64, ops []uint16) bool {
		return run(seed, ops) == run(seed, ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
