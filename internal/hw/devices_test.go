package hw

import (
	"testing"

	"cres/internal/sim"
)

func TestCoreExecObservers(t *testing.T) {
	e, b := newTestBus(t)
	c := NewCore(e, b, "app-core", WorldNormal)
	var seen []BlockID
	c.SubscribeExec(execFunc(func(core string, blk BlockID, at sim.VirtualTime) {
		if core != "app-core" {
			t.Errorf("core = %q", core)
		}
		seen = append(seen, blk)
	}))
	for _, blk := range []BlockID{1, 2, 3} {
		if err := c.ExecBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("seen = %v", seen)
	}
	if c.BlocksExecuted() != 3 {
		t.Fatalf("BlocksExecuted = %d", c.BlocksExecuted())
	}
}

type execFunc func(core string, blk BlockID, at sim.VirtualTime)

func (f execFunc) ObserveExec(core string, blk BlockID, at sim.VirtualTime) { f(core, blk, at) }

func TestCoreHalt(t *testing.T) {
	e, b := newTestBus(t)
	c := NewCore(e, b, "app-core", WorldNormal)
	c.Halt()
	if !c.Halted() {
		t.Fatal("Halted = false")
	}
	if err := c.ExecBlock(1); err == nil {
		t.Fatal("halted core executed")
	}
	if _, err := c.Read(0x1000, 1); err == nil {
		t.Fatal("halted core read")
	}
	if err := c.Write(0x1000, []byte{1}); err == nil {
		t.Fatal("halted core wrote")
	}
	if _, err := c.Fetch(0x1000, 1); err == nil {
		t.Fatal("halted core fetched")
	}
	c.Resume()
	if err := c.ExecBlock(1); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64, HitLatency: 1, MissLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	lat, hit := c.Access(0x0, WorldNormal)
	if hit || lat != 10 {
		t.Fatalf("cold access: hit=%v lat=%v", hit, lat)
	}
	lat, hit = c.Access(0x0, WorldNormal)
	if !hit || lat != 1 {
		t.Fatalf("warm access: hit=%v lat=%v", hit, lat)
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways: third distinct line evicts the least recently used.
	c, err := NewCache(CacheConfig{Sets: 1, Ways: 2, LineSize: 64, HitLatency: 1, MissLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0*64, WorldNormal) // A
	c.Access(1*64, WorldNormal) // B -> MRU=B, LRU=A
	c.Access(0*64, WorldNormal) // touch A -> MRU=A, LRU=B
	c.Access(2*64, WorldNormal) // C evicts B
	if _, hit := c.Access(0*64, WorldNormal); !hit {
		t.Fatal("A evicted despite being MRU")
	}
	if _, hit := c.Access(1*64, WorldNormal); hit {
		t.Fatal("B survived despite being LRU")
	}
}

func TestCacheCrossWorldEvictionObservable(t *testing.T) {
	// The covert channel medium: secure-world accesses evict
	// normal-world lines, which the normal world measures via timing.
	c, err := NewCache(CacheConfig{Sets: 2, Ways: 2, LineSize: 64, HitLatency: 1, MissLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Prime set 0 with normal-world lines.
	c.Access(Addr(0*2*64+0), WorldNormal)
	c.Access(Addr(1*2*64+0), WorldNormal)
	// Secure world touches two lines in set 0, evicting both.
	c.Access(Addr(2*2*64+0), WorldSecure)
	c.Access(Addr(3*2*64+0), WorldSecure)
	if c.Stats().CrossWorldEvictions != 2 {
		t.Fatalf("CrossWorldEvictions = %d, want 2", c.Stats().CrossWorldEvictions)
	}
	// Probe: both original lines now miss.
	if _, hit := c.Access(Addr(0), WorldNormal); hit {
		t.Fatal("primed line survived secure-world eviction")
	}
}

func TestCachePartitioningClosesChannel(t *testing.T) {
	c, err := NewCache(CacheConfig{Sets: 2, Ways: 2, LineSize: 64, HitLatency: 1, MissLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPartitioned(true)
	if !c.Partitioned() {
		t.Fatal("Partitioned = false")
	}
	// Prime set 0 with a normal-world line.
	c.Access(Addr(0), WorldNormal)
	// Secure world floods set 0.
	for i := 1; i < 10; i++ {
		c.Access(Addr(uint64(i)*2*64), WorldSecure)
	}
	// Normal-world line must have survived: no cross-world eviction.
	if _, hit := c.Access(Addr(0), WorldNormal); !hit {
		t.Fatal("partitioned cache still leaked cross-world eviction")
	}
	if c.Stats().CrossWorldEvictions != 0 {
		t.Fatalf("CrossWorldEvictions = %d, want 0", c.Stats().CrossWorldEvictions)
	}
}

func TestCacheFlush(t *testing.T) {
	c, err := NewCache(CacheConfig{Sets: 2, Ways: 2, LineSize: 64, HitLatency: 1, MissLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(Addr(0), WorldNormal)
	c.FlushAll()
	if _, hit := c.Access(Addr(0), WorldNormal); hit {
		t.Fatal("FlushAll kept a line")
	}
}

func TestCacheProbeSet(t *testing.T) {
	c, err := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64, HitLatency: 1, MissLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	// First probe of 2 lines in set 1: all miss (cold).
	if m := c.ProbeSet(1, WorldNormal, 2); m != 2 {
		t.Fatalf("cold probe misses = %d, want 2", m)
	}
	// Second probe: all hit.
	if m := c.ProbeSet(1, WorldNormal, 2); m != 0 {
		t.Fatalf("warm probe misses = %d, want 0", m)
	}
}

func TestCacheInvalidGeometry(t *testing.T) {
	if _, err := NewCache(CacheConfig{Sets: 0, Ways: 1, LineSize: 64}); err == nil {
		t.Fatal("zero sets accepted")
	}
}

func TestEnvSensorBaselineAndOffset(t *testing.T) {
	e := sim.New(1)
	s := NewEnvSensor(e, SensorVoltage, "vdd", 1.0, 0.01)
	for i := 0; i < 100; i++ {
		v := s.Sample()
		if v < 0.99 || v > 1.01 {
			t.Fatalf("sample %f outside noise band", v)
		}
	}
	s.InjectOffset(0.5)
	if s.Offset() != 0.5 {
		t.Fatal("Offset not recorded")
	}
	v := s.Sample()
	if v < 1.49 || v > 1.51 {
		t.Fatalf("offset sample %f", v)
	}
	if s.Baseline() != 1.0 {
		t.Fatal("baseline changed")
	}
}

func TestActuatorLock(t *testing.T) {
	a := NewActuator("breaker", 0)
	cmd := a.Apply(100, 42)
	if cmd.Forced || cmd.Value != 42 {
		t.Fatalf("cmd = %+v", cmd)
	}
	a.Lock()
	if !a.Locked() {
		t.Fatal("Locked = false")
	}
	cmd = a.Apply(200, 99)
	if !cmd.Forced || cmd.Value != 0 {
		t.Fatalf("locked cmd = %+v, want forced safe value", cmd)
	}
	if h := a.History(); len(h) != 2 || h[1] != cmd {
		t.Fatalf("history = %+v", h)
	}
}

func TestNewSoCDefault(t *testing.T) {
	e := sim.New(1)
	soc, err := NewSoC(e, SoCConfig{WithSSMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	if soc.AppCore == nil || soc.SSMCore == nil || soc.DMA == nil || soc.Cache == nil {
		t.Fatal("missing components")
	}
	if soc.SSMCore.World() != WorldIsolated {
		t.Fatalf("SSM core world = %v", soc.SSMCore.World())
	}
	// App core cannot reach SSM memory.
	if _, err := soc.AppCore.Read(AddrSSMSRAM, 4); err == nil {
		t.Fatal("app core read SSM SRAM")
	}
	// SSM core can reach everything.
	if _, err := soc.SSMCore.Read(AddrSRAM, 4); err != nil {
		t.Fatalf("ssm core read sram: %v", err)
	}
	if _, err := soc.SSMCore.Read(AddrEvidence, 4); err != nil {
		t.Fatalf("ssm core read evidence store: %v", err)
	}
	if len(soc.EnvSensors()) != 3 {
		t.Fatal("want 3 env sensors")
	}
}

func TestNewSoCBaselineHasNoSSM(t *testing.T) {
	e := sim.New(1)
	soc, err := NewSoC(e, SoCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if soc.SSMCore != nil {
		t.Fatal("baseline SoC has SSM core")
	}
	if _, ok := soc.Mem.Region(RegionSSMSRAM); ok {
		t.Fatal("baseline SoC has SSM region")
	}
}
