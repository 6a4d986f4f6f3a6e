package hw

import (
	"fmt"

	"cres/internal/sim"
)

// TxKind is the kind of a bus transaction.
type TxKind uint8

// Transaction kinds.
const (
	TxRead TxKind = iota + 1
	TxWrite
	TxExec
)

// String implements fmt.Stringer.
func (k TxKind) String() string {
	switch k {
	case TxRead:
		return "read"
	case TxWrite:
		return "write"
	case TxExec:
		return "exec"
	default:
		return fmt.Sprintf("tx(%d)", uint8(k))
	}
}

// Transaction is one bus operation as seen at the interconnect.
type Transaction struct {
	// Seq is a bus-unique sequence number.
	Seq uint64
	// At is the virtual time the transaction crossed the bus.
	At sim.VirtualTime
	// Initiator names the master that issued the transaction.
	Initiator string
	// InitiatorID is the dense per-bus index the interconnect assigned to
	// the initiator at Attach time. It identifies the physical master even
	// if an in-flight tamper rewrites security attributes, and lets
	// observers keep per-initiator state in a slice instead of a map.
	InitiatorID int
	// World is the security attribute the bus carries for the
	// transaction (the NS bit in TrustZone terms). It normally equals
	// the initiator's provisioned world, but hardware-level attacks can
	// tamper with it in flight (Benhani et al., Section IV).
	World World
	// Kind is read, write or exec (instruction fetch).
	Kind TxKind
	// Addr and Size give the target range.
	Addr Addr
	Size uint64
}

// Result is the outcome of a transaction.
type Result struct {
	// OK is true when the access succeeded.
	OK bool
	// Fault is non-nil when the access failed.
	Fault *Fault
	// Region is the name of the region hit (empty if unmapped).
	Region string
	// Data holds read results (nil for writes). It is a view of the
	// memory region's backing store, not a copy: it is valid only for the
	// duration of an observer callback and must not be retained or
	// mutated. Core.Read returns callers a private copy instead.
	Data []byte
}

// Observer receives every transaction that crosses the bus together with
// its outcome. Bus monitors (paper Characteristic 2) implement Observer.
type Observer interface {
	ObserveTx(tx Transaction, res Result)
}

// Gate decides whether a transaction may proceed. The response manager
// installs gates to physically isolate compromised initiators
// (Characteristic 3: "a compromised resource can be physically isolated
// from the system"). A gate returning a non-nil fault blocks the access.
type Gate interface {
	CheckTx(tx Transaction) *Fault
}

// GateFunc adapts a function to the Gate interface.
type GateFunc func(tx Transaction) *Fault

// CheckTx implements Gate.
func (f GateFunc) CheckTx(tx Transaction) *Fault { return f(tx) }

// GateToken identifies an installed gate for removal.
type GateToken uint64

type installedGate struct {
	tok  GateToken
	gate Gate
}

// Initiator is a bus master handle. Cores and the DMA engine hold one.
type Initiator struct {
	bus   *Bus
	name  string
	id    int
	world World
}

// Name returns the initiator's bus name.
func (i *Initiator) Name() string { return i.name }

// World returns the initiator's provisioned security world.
func (i *Initiator) World() World { return i.world }

// Bus is the SoC interconnect. All memory traffic flows through it, which
// is what gives bus-level monitors complete visibility, and what makes
// the security attribute tampering attack of Section IV possible.
//
// Create with NewBus.
type Bus struct {
	engine    *sim.Engine
	mem       *Memory
	nextInit  int // next dense initiator ID (see Transaction.InitiatorID)
	observers []Observer
	gates     []installedGate
	gateSeq   uint64
	seq       uint64

	// tamper, when non-nil, rewrites transactions in flight. It models
	// the hardware attack of Benhani et al. (Section IV): a malicious
	// block in the programmable logic flipping security attributes or
	// handshake signals. Installed only by the attack injector.
	tamper func(*Transaction)

	stats BusStats
}

// BusStats counts traffic at the interconnect.
type BusStats struct {
	Total    uint64
	Reads    uint64
	Writes   uint64
	Execs    uint64
	Faults   uint64
	Blocked  uint64
	Tampered uint64
}

// NewBus creates an interconnect over the given memory.
func NewBus(engine *sim.Engine, mem *Memory) *Bus {
	return &Bus{engine: engine, mem: mem}
}

// Memory returns the address space behind the bus.
func (b *Bus) Memory() *Memory { return b.mem }

// Stats returns a copy of the traffic counters.
func (b *Bus) Stats() BusStats { return b.stats }

// Attach registers a new initiator with a provisioned security world.
// Initiators receive dense sequential IDs in attach order (see
// Transaction.InitiatorID).
func (b *Bus) Attach(name string, world World) *Initiator {
	init := &Initiator{bus: b, name: name, id: b.nextInit, world: world}
	b.nextInit++
	return init
}

// Subscribe registers a bus observer. Observers see every transaction.
func (b *Bus) Subscribe(o Observer) { b.observers = append(b.observers, o) }

// AddGate installs an access gate and returns a token for removal.
// Gates run before the memory access.
func (b *Bus) AddGate(g Gate) GateToken {
	b.gateSeq++
	tok := GateToken(b.gateSeq)
	b.gates = append(b.gates, installedGate{tok: tok, gate: g})
	return tok
}

// RemoveGate uninstalls a previously added gate. It reports whether the
// token matched an installed gate.
func (b *Bus) RemoveGate(tok GateToken) bool {
	for i, x := range b.gates {
		if x.tok == tok {
			b.gates = append(b.gates[:i], b.gates[i+1:]...)
			return true
		}
	}
	return false
}

// SetTamper installs (or clears, with nil) the in-flight transaction
// rewriter. Only the attack injector uses this.
func (b *Bus) SetTamper(fn func(*Transaction)) { b.tamper = fn }

// issue routes one transaction: tamper hook, gates, memory access,
// observers, stats — in that order. It returns nil when the access
// succeeded; the full Result exists only for observers, so the common
// path copies one pointer out instead of the whole struct.
//
// For reads and fetches, dst (when non-nil) receives a copy of the data;
// observers always see the region's backing slice in Result.Data, so the
// steady-state read path performs no allocation.
func (b *Bus) issue(init *Initiator, kind TxKind, addr Addr, size uint64, data []byte, dst []byte) *Fault {
	b.seq++
	tx := Transaction{
		Seq:         b.seq,
		At:          b.engine.Now(),
		Initiator:   init.name,
		InitiatorID: init.id,
		World:       init.world,
		Kind:        kind,
		Addr:        addr,
		Size:        size,
	}
	if b.tamper != nil {
		// Kept out of line: taking &tx here would make every transaction
		// escape to the heap; the helper confines that cost to runs with
		// an active tamper attack.
		tx = b.applyTamper(tx)
	}

	var res Result
	blocked := false
	for _, g := range b.gates {
		if f := g.gate.CheckTx(tx); f != nil {
			res = Result{Fault: f, Region: f.Region}
			blocked = true
			break
		}
	}
	if !blocked {
		if r, f := b.mem.check(tx.Addr, size, kind, tx.World); f != nil {
			res = Result{Fault: f, Region: f.Region}
		} else {
			off := uint64(tx.Addr - r.Base)
			view := r.data[off : off+size : off+size]
			if kind == TxWrite {
				copy(view, data)
				res = Result{OK: true, Region: r.Name}
			} else { // TxRead, TxExec share read semantics with different perms
				if dst != nil {
					copy(dst, view)
				}
				res = Result{OK: true, Region: r.Name, Data: view}
			}
		}
	}

	b.stats.Total++
	switch kind {
	case TxRead:
		b.stats.Reads++
	case TxWrite:
		b.stats.Writes++
	case TxExec:
		b.stats.Execs++
	}
	if !res.OK {
		b.stats.Faults++
		if blocked {
			b.stats.Blocked++
		}
	}
	for _, o := range b.observers {
		o.ObserveTx(tx, res)
	}
	return res.Fault
}

// applyTamper runs the in-flight rewriter over a copy of tx, counting a
// tampered transaction when any field changed. The attack can rewrite
// bus attributes (world, kind, address, size) but not the transaction's
// physical identity: the interconnect knows which master drove the
// request lines, so Seq, At, Initiator and InitiatorID are restored
// after the hook. Observers may therefore index per-initiator state by
// InitiatorID even under an active tamper attack.
func (b *Bus) applyTamper(tx Transaction) Transaction {
	before := tx
	b.tamper(&tx)
	tx.Seq = before.Seq
	tx.At = before.At
	tx.Initiator = before.Initiator
	tx.InitiatorID = before.InitiatorID
	if tx != before {
		b.stats.Tampered++
	}
	return tx
}

// ReadInto issues a read transaction of len(buf) bytes into the
// caller-supplied buffer. It allocates nothing on the success path.
func (i *Initiator) ReadInto(addr Addr, buf []byte) error {
	if f := i.bus.issue(i, TxRead, addr, uint64(len(buf)), nil, buf); f != nil {
		return f
	}
	return nil
}

// Write issues a write transaction.
func (i *Initiator) Write(addr Addr, data []byte) error {
	if f := i.bus.issue(i, TxWrite, addr, uint64(len(data)), data, nil); f != nil {
		return f
	}
	return nil
}

// Fetch issues an instruction-fetch (exec) transaction and returns the
// data in a freshly allocated buffer.
func (i *Initiator) Fetch(addr Addr, size uint64) ([]byte, error) {
	buf := make([]byte, size)
	if f := i.bus.issue(i, TxExec, addr, size, nil, buf); f != nil {
		return nil, f
	}
	return buf, nil
}
