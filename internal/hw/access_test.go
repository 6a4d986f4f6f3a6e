package hw

import (
	"fmt"
	"testing"

	"cres/internal/sim"
)

// accessOutcome is what one access leaves behind: its fault (the zero
// Fault on success) and the change it made to the bus counters.
type accessOutcome struct {
	fault Fault
	stats BusStats
}

func statsDelta(after, before BusStats) BusStats {
	return BusStats{
		Total:    after.Total - before.Total,
		Reads:    after.Reads - before.Reads,
		Writes:   after.Writes - before.Writes,
		Execs:    after.Execs - before.Execs,
		Faults:   after.Faults - before.Faults,
		Blocked:  after.Blocked - before.Blocked,
		Tampered: after.Tampered - before.Tampered,
	}
}

// expectedFault is the access check written out plainly: the one
// region holding addr and all of [addr, addr+n), then its world, then
// its permission. It returns the fault code and the region it names,
// both zero for success.
func expectedFault(regions []*Region, addr Addr, n uint64, k TxKind, w World) (FaultCode, string) {
	need := map[TxKind]Perm{TxRead: PermRead, TxWrite: PermWrite, TxExec: PermExec}[k]
	for _, r := range regions {
		if addr < r.Base {
			continue
		}
		off := uint64(addr - r.Base)
		if off >= r.Size || n > r.Size-off {
			continue
		}
		switch {
		case w < r.World:
			return FaultSecurity, r.Name
		case r.Perm&need != need:
			return FaultPerm, r.Name
		}
		return 0, ""
	}
	return FaultUnmapped, ""
}

// TestAccessCheckCacheParity pins that the region check's last-hit
// cache changes no outcome: a core's ReadInto, Write and Fetch give the
// same fault (code, address, region, detail) or success, and the same
// bus counters, whether the cache holds the target region, another
// region or nothing. It covers every reference-SoC region, kind and
// world, at both ends of each region, straddling each end, in the gaps
// and past 2^64, and checks every outcome against expectedFault. Each
// region also takes accesses of zero bytes at its base, its last byte
// and its end, and each gap one in its middle: a zero-length access at
// a region's end is outside it, whichever region the cache holds.
//
// With the target region cached, a refused access inside it is decided
// by check's inline test alone falling through; the test requires the
// grid to hold such accesses for both a world and a permission refusal.
func TestAccessCheckCacheParity(t *testing.T) {
	soc, err := NewSoC(sim.New(1), SoCConfig{WithSSMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	regions := soc.Mem.Regions()

	type access struct {
		name string
		addr Addr
		n    uint64
		home int // the region cached as the target
	}
	var accesses []access
	for i, r := range regions {
		end := r.Base + Addr(r.Size)
		accesses = append(accesses,
			access{r.Name + " low end", r.Base, 8, i},
			access{r.Name + " high end", end - 8, 8, i},
			access{r.Name + " last byte", end - 1, 1, i},
			access{r.Name + " straddling its end", end - 4, 8, i},
			access{r.Name + " empty at its base", r.Base, 0, i},
			access{r.Name + " empty at its last byte", end - 1, 0, i},
			access{r.Name + " empty at its end", end, 0, i},
		)
		if r.Base >= 4 {
			accesses = append(accesses, access{r.Name + " straddling its base", r.Base - 4, 8, i})
		}
		if i+1 < len(regions) && end < regions[i+1].Base {
			accesses = append(accesses,
				access{"gap above " + r.Name, end, 8, i},
				access{"gap above " + r.Name + ", empty", end + (regions[i+1].Base-end)/2, 0, i},
			)
		}
	}
	// An access wrapping past 2^64 ends inside the boot ROM at address 0;
	// with the boot ROM cached, only the wrap test refuses it.
	accesses = append(accesses,
		access{"above the map", 0x7000_0000, 8, len(regions) - 1},
		access{"wrapping past 2^64", ^Addr(0) - 3, 8, 0},
		access{"ending at 2^64", ^Addr(0) - 7, 8, 0},
	)

	cores := map[World]*Core{}
	for _, w := range []World{WorldNormal, WorldSecure, WorldIsolated} {
		cores[w] = NewCore(soc.Engine, soc.Bus, "core-"+w.String(), w)
	}
	kinds := map[TxKind]func(c *Core, addr Addr, n uint64) error{
		TxRead: func(c *Core, addr Addr, n uint64) error {
			buf := make([]byte, n)
			return c.ReadInto(addr, buf)
		},
		TxWrite: func(c *Core, addr Addr, n uint64) error { return c.Write(addr, make([]byte, n)) },
		TxExec: func(c *Core, addr Addr, n uint64) error {
			_, err := c.Fetch(addr, n)
			return err
		},
	}

	inlineRefusals := map[FaultCode]int{}
	for _, a := range accesses {
		home := regions[a.home]
		other := regions[(a.home+1)%len(regions)]
		for _, k := range []TxKind{TxRead, TxWrite, TxExec} {
			for _, w := range []World{WorldNormal, WorldSecure, WorldIsolated} {
				name := fmt.Sprintf("%s: %s-world %s of %d bytes at %#x", a.name, w, k, a.n, uint64(a.addr))
				wantCode, wantRegion := expectedFault(regions, a.addr, a.n, k, w)
				var first accessOutcome
				for j, cached := range []*Region{nil, home, other} {
					soc.Mem.last = cached
					before := soc.Bus.Stats()
					err := kinds[k](cores[w], a.addr, a.n)
					got := accessOutcome{stats: statsDelta(soc.Bus.Stats(), before)}
					if err != nil {
						f, ok := AsFault(err)
						if !ok {
							t.Fatalf("%s: error %v is no fault", name, err)
						}
						got.fault = *f
					}
					if got.fault.Code != wantCode || got.fault.Region != wantRegion {
						t.Errorf("%s, cached %v: fault %+v, want code %v in region %q", name, cached != nil, got.fault, wantCode, wantRegion)
					}
					if j == 0 {
						first = got
						continue
					}
					if got != first {
						t.Errorf("%s: with %s cached got %+v, with nothing cached %+v", name, cached.Name, got, first)
					}
					if cached == home && home.Contains(a.addr, a.n) && got.fault.Code != 0 {
						inlineRefusals[got.fault.Code]++
					}
				}
			}
		}
	}
	for _, code := range []FaultCode{FaultSecurity, FaultPerm} {
		if inlineRefusals[code] == 0 {
			t.Errorf("no access inside the cached region was refused with a %s fault", code)
		}
	}
}
