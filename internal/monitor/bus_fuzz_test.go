package monitor

import (
	"fmt"
	"slices"
	"testing"

	"cres/internal/hw"
	"cres/internal/sim"
)

// busMaster is what hw.Core and hw.Initiator both offer: the fuzz drives
// the cores' direct bus path and the initiators' wrappers alike.
type busMaster interface {
	ReadInto(addr hw.Addr, buf []byte) error
	Write(addr hw.Addr, data []byte) error
	Fetch(addr hw.Addr, size uint64) ([]byte, error)
}

// fuzzInitiators are the masters the fuzz issues from, in attach order
// after the SoC's own: two cores, then three plain initiators.
var fuzzInitiators = []string{"app-core", "ssm-core", "updater", "tee", "rogue"}

// fuzzRegions are the region names a fuzzed watchpoint may police: the
// reference SoC's, the empty name unmapped faults carry, and one that
// names no region.
var fuzzRegions = []string{
	hw.RegionBootROM, hw.RegionSlotA, hw.RegionSlotB, hw.RegionNV, hw.RegionSRAM,
	hw.RegionSecureSRAM, hw.RegionMMIO, hw.RegionSSMSRAM, hw.RegionEvidence, "", "nowhere",
}

// fuzzBytes hands out fuzzer bytes, zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// kind decodes a transaction kind: read, write or exec from one byte
// below 192, and any of the 256 values from the byte after one above.
func (b *fuzzBytes) kind() hw.TxKind {
	if c := b.next(); c < 192 {
		return hw.TxKind(1 + c%3)
	}
	return hw.TxKind(b.next())
}

// decodeBusConfig builds a monitor configuration from fuzzer bytes:
// provisioned worlds for some initiators and up to four watchpoints
// over any region, listing any kinds (duplicates allowed) and any
// allowed initiators.
func decodeBusConfig(b *fuzzBytes) BusConfig {
	var cfg BusConfig
	cfg.DisableSignatures = b.next() == 0xff
	for _, name := range fuzzInitiators {
		switch c := b.next() % 6; c {
		case 0: // not provisioned
		case 5:
			if cfg.ProvisionedWorlds == nil {
				cfg.ProvisionedWorlds = map[string]hw.World{}
			}
			cfg.ProvisionedWorlds[name] = hw.World(b.next())
		default:
			if cfg.ProvisionedWorlds == nil {
				cfg.ProvisionedWorlds = map[string]hw.World{}
			}
			cfg.ProvisionedWorlds[name] = hw.World(c - 1)
		}
	}
	for n := b.next() % 5; n > 0; n-- {
		wp := Watchpoint{Region: fuzzRegions[int(b.next())%len(fuzzRegions)]}
		for k := b.next() % 5; k > 0; k-- {
			wp.Kinds = append(wp.Kinds, b.kind())
		}
		allowed := b.next()
		for i, name := range fuzzInitiators {
			if allowed&(1<<i) != 0 {
				wp.Allowed = append(wp.Allowed, name)
			}
		}
		cfg.Watchpoints = append(cfg.Watchpoints, wp)
	}
	return cfg
}

// fuzzTarget decodes an 8-byte access address: inside any region, in
// the gap above the reference map, or straddling a region's end.
func fuzzTarget(regions []*hw.Region, sel, off byte) hw.Addr {
	switch i := int(sel) % (len(regions) + 2); {
	case i < len(regions):
		r := regions[i]
		return r.Base + hw.Addr((uint64(off)<<6)%(r.Size-8))
	case i == len(regions):
		return 0x7000_0000 + hw.Addr(off)<<6
	default:
		r := regions[int(off)%len(regions)]
		return r.Base + hw.Addr(r.Size) - 4
	}
}

// refBusMonitor is the plain reference evaluator: ObserveTx's rules in
// order — fault alerts, the provisioned-world cross-check, then every
// watchpoint — with no fast path and nothing compiled.
type refBusMonitor struct {
	engine      *sim.Engine
	cfg         BusConfig
	alerts      []Alert
	tx, faults  uint64
	monitorName string
}

func (r *refBusMonitor) alert(tx hw.Transaction, sev Severity, sig, detail string) {
	r.alerts = append(r.alerts, Alert{At: r.engine.Now(), Monitor: r.monitorName,
		Resource: tx.Initiator, Severity: sev, Signature: sig, Detail: detail})
}

func (r *refBusMonitor) ObserveTx(tx hw.Transaction, res hw.Result) {
	r.tx++
	if r.cfg.DisableSignatures {
		if !res.OK {
			r.faults++
		}
		return
	}
	if !res.OK && res.Fault != nil {
		r.faults++
		switch res.Fault.Code {
		case hw.FaultSecurity:
			r.alert(tx, Critical, SigBusSecurityFault,
				fmt.Sprintf("%s: %s-world %s at %#x denied (%s)", tx.Initiator, tx.World, tx.Kind, uint64(tx.Addr), res.Fault.Detail))
		case hw.FaultPerm:
			r.alert(tx, Warning, SigBusPermFault,
				fmt.Sprintf("%s: %s at %#x violates region permissions", tx.Initiator, tx.Kind, uint64(tx.Addr)))
		}
	}
	if prov := r.cfg.ProvisionedWorlds[tx.Initiator]; prov != 0 && tx.World > prov {
		r.alert(tx, Critical, SigBusWorldMismatch,
			fmt.Sprintf("%s provisioned %s but issued %s-world %s at %#x: bus attribute tampering",
				tx.Initiator, prov, tx.World, tx.Kind, uint64(tx.Addr)))
	}
	for _, wp := range r.cfg.Watchpoints {
		if res.Region == wp.Region && slices.Contains(wp.Kinds, tx.Kind) && !slices.Contains(wp.Allowed, tx.Initiator) {
			r.alert(tx, Critical, SigBusWatchpoint,
				fmt.Sprintf("unexpected %s of %s by %s at %#x", tx.Kind, wp.Region, tx.Initiator, uint64(tx.Addr)))
		}
	}
}

// FuzzBusMonitorVerdicts holds the bus monitor's alerts and counters to
// the reference evaluator's on fuzzed configurations and traffic: reads,
// writes and fetches from cores and plain initiators, some under a
// tamper hook that rewrites the transaction's world or kind, to watched,
// unwatched, secure-only and unmapped addresses. A fast path that skips
// a transaction some check would alert on fails it.
//
// cfg decodes as decodeBusConfig says. Each op reads from ops a byte
// choosing the master and the access (an 8- or 4-byte read, an 8-byte
// write or an 8-byte fetch), a target region and an offset
// (fuzzTarget), a tamper mode (bit 0 rewrites the world, bit 1 the
// kind), the tampered world and the tampered kind. The seed corpus in
// testdata/fuzz holds the benchmark's full monitor, read and exec
// watchpoints, raw kinds only a tamper hook issues, tampered worlds
// against provisioned ones, and a monitor with its signatures off.
func FuzzBusMonitorVerdicts(f *testing.F) {
	f.Fuzz(func(t *testing.T, cfgBytes, opBytes []byte) {
		b := fuzzBytes(cfgBytes)
		cfg := decodeBusConfig(&b)

		e := sim.New(1)
		soc, err := hw.NewSoC(e, hw.SoCConfig{WithSSMCore: true})
		if err != nil {
			t.Fatal(err)
		}
		var got collector
		m, err := NewBusMonitor(e, cfg, &got)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refBusMonitor{engine: e, cfg: cfg, monitorName: m.Name()}
		soc.Bus.Subscribe(m)
		soc.Bus.Subscribe(ref)
		masters := []busMaster{
			soc.AppCore, soc.SSMCore,
			soc.Bus.Attach("updater", hw.WorldNormal),
			soc.Bus.Attach("tee", hw.WorldSecure),
			soc.Bus.Attach("rogue", hw.WorldNormal),
		}
		regions := soc.Mem.Regions()

		ops := fuzzBytes(opBytes)
		var buf [8]byte
		word := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		for n := 0; n < 64 && len(ops) > 0; n++ {
			sel := ops.next()
			master := masters[int(sel)%len(masters)]
			addr := fuzzTarget(regions, ops.next(), ops.next())
			mode, world, kind := ops.next()%4, hw.World(ops.next()), ops.kind()
			if mode != 0 {
				soc.Bus.SetTamper(func(tx *hw.Transaction) {
					if mode&1 != 0 {
						tx.World = world
					}
					if mode&2 != 0 {
						tx.Kind = kind
					}
				})
			}
			switch sel / 5 % 4 {
			case 0:
				master.ReadInto(addr, buf[:]) //nolint:errcheck
			case 1:
				master.ReadInto(addr, buf[:4]) //nolint:errcheck
			case 2:
				master.Write(addr, word) //nolint:errcheck
			default:
				master.Fetch(addr, 8) //nolint:errcheck
			}
			soc.Bus.SetTamper(nil)
		}

		if len(got.alerts) != len(ref.alerts) {
			t.Fatalf("monitor raised %d alerts, reference %d:\n got  %+v\n want %+v", len(got.alerts), len(ref.alerts), got.alerts, ref.alerts)
		}
		for i, a := range got.alerts {
			if a != ref.alerts[i] {
				t.Fatalf("alert %d:\n got  %+v\n want %+v", i, a, ref.alerts[i])
			}
		}
		snap := m.Snapshot()
		for name, want := range map[string]uint64{"tx_total": ref.tx, "faults_total": ref.faults, "alerts_total": uint64(len(ref.alerts))} {
			if snap[name] != float64(want) {
				t.Fatalf("%s = %v, reference %d", name, snap[name], want)
			}
		}
	})
}
