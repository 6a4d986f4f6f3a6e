package hw

import (
	"errors"
	"testing"

	"cres/internal/sim"
)

func newTestBus(t *testing.T) (*sim.Engine, *Bus) {
	t.Helper()
	e := sim.New(1)
	var m Memory
	if _, err := m.AddRegion("ram", 0x1000, 0x1000, PermRead|PermWrite|PermExec, WorldNormal); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddRegion("sec", 0x3000, 0x1000, PermRead|PermWrite, WorldSecure); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddRegion("rom", 0x5000, 0x1000, PermRead|PermExec, WorldNormal); err != nil {
		t.Fatal(err)
	}
	return e, NewBus(e, &m)
}

// read issues an n-byte read from init into a fresh buffer.
func read(init *Initiator, addr Addr, n uint64) ([]byte, error) {
	buf := make([]byte, n)
	return buf, init.ReadInto(addr, buf)
}

func TestBusReadWrite(t *testing.T) {
	_, b := newTestBus(t)
	cpu := b.Attach("cpu0", WorldNormal)
	if err := cpu.Write(0x1000, []byte{9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	got, err := read(cpu, 0x1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[1] != 8 || got[2] != 7 {
		t.Fatalf("Read = %v", got)
	}
}

func TestBusSecurityAttribute(t *testing.T) {
	_, b := newTestBus(t)
	normal := b.Attach("cpu0", WorldNormal)
	secure := b.Attach("tee", WorldSecure)

	if _, err := read(normal, 0x3000, 4); err == nil {
		t.Fatal("normal-world read of secure region succeeded")
	} else if f, ok := AsFault(err); !ok || f.Code != FaultSecurity {
		t.Fatalf("fault = %v, want security", err)
	}
	if _, err := read(secure, 0x3000, 4); err != nil {
		t.Fatalf("secure-world read failed: %v", err)
	}
}

func TestBusIsolatedWorldOutranksSecure(t *testing.T) {
	e := sim.New(1)
	var m Memory
	m.AddRegion("ssm", 0x7000, 0x1000, PermRead|PermWrite, WorldIsolated)
	b := NewBus(e, &m)
	secure := b.Attach("tee", WorldSecure)
	iso := b.Attach("ssm", WorldIsolated)
	if _, err := read(secure, 0x7000, 4); err == nil {
		t.Fatal("secure world reached isolated region")
	}
	if _, err := read(iso, 0x7000, 4); err != nil {
		t.Fatalf("isolated initiator rejected: %v", err)
	}
}

func TestBusPermFault(t *testing.T) {
	_, b := newTestBus(t)
	cpu := b.Attach("cpu0", WorldNormal)
	if err := cpu.Write(0x5000, []byte{1}); err == nil {
		t.Fatal("write to ROM succeeded")
	} else if f, _ := AsFault(err); f.Code != FaultPerm {
		t.Fatalf("fault code = %v, want permission", f.Code)
	}
	if _, err := cpu.Fetch(0x3000, 4); err == nil {
		t.Fatal("exec from non-exec secure region by normal world succeeded")
	}
}

func TestBusFetch(t *testing.T) {
	_, b := newTestBus(t)
	cpu := b.Attach("cpu0", WorldNormal)
	if _, err := cpu.Fetch(0x5000, 16); err != nil {
		t.Fatalf("fetch from rom: %v", err)
	}
}

type recordingObserver struct {
	txs []Transaction
	res []Result
}

func (r *recordingObserver) ObserveTx(tx Transaction, res Result) {
	r.txs = append(r.txs, tx)
	r.res = append(r.res, res)
}

func TestBusObserverSeesEverything(t *testing.T) {
	_, b := newTestBus(t)
	obs := &recordingObserver{}
	b.Subscribe(obs)
	cpu := b.Attach("cpu0", WorldNormal)
	cpu.Write(0x1000, []byte{1})
	read(cpu, 0x1000, 1)
	read(cpu, 0x3000, 1) // faults
	if len(obs.txs) != 3 {
		t.Fatalf("observer saw %d txs, want 3", len(obs.txs))
	}
	if obs.txs[0].Kind != TxWrite || obs.txs[1].Kind != TxRead {
		t.Fatal("tx kinds wrong")
	}
	if obs.res[2].OK {
		t.Fatal("faulting tx reported OK")
	}
	if obs.txs[0].Seq >= obs.txs[1].Seq {
		t.Fatal("sequence numbers not increasing")
	}
	if obs.txs[0].Initiator != "cpu0" {
		t.Fatalf("initiator = %q", obs.txs[0].Initiator)
	}
}

func TestBusGateBlocks(t *testing.T) {
	_, b := newTestBus(t)
	cpu := b.Attach("cpu0", WorldNormal)
	gate := GateFunc(func(tx Transaction) *Fault {
		if tx.Initiator == "cpu0" {
			return &Fault{Code: FaultBlocked, Addr: tx.Addr, Detail: "isolated by response manager"}
		}
		return nil
	})
	tok := b.AddGate(gate)
	if _, err := read(cpu, 0x1000, 1); err == nil {
		t.Fatal("gated initiator read succeeded")
	} else if f, _ := AsFault(err); f.Code != FaultBlocked {
		t.Fatalf("fault = %v, want blocked", f.Code)
	}
	other := b.Attach("cpu1", WorldNormal)
	if _, err := read(other, 0x1000, 1); err != nil {
		t.Fatalf("ungated initiator blocked: %v", err)
	}
	if !b.RemoveGate(tok) {
		t.Fatal("RemoveGate = false for installed gate")
	}
	if b.RemoveGate(tok) {
		t.Fatal("second RemoveGate = true")
	}
	if _, err := read(cpu, 0x1000, 1); err != nil {
		t.Fatalf("read after gate removal: %v", err)
	}
}

func TestBusTamperFlipsSecurityAttribute(t *testing.T) {
	// Models the Benhani et al. attack: hardware flips the NS bit so a
	// normal-world master reaches secure memory.
	_, b := newTestBus(t)
	cpu := b.Attach("evil", WorldNormal)
	if _, err := read(cpu, 0x3000, 4); err == nil {
		t.Fatal("pre-tamper secure read succeeded")
	}
	b.SetTamper(func(tx *Transaction) {
		if tx.Initiator == "evil" {
			tx.World = WorldSecure
		}
	})
	if _, err := read(cpu, 0x3000, 4); err != nil {
		t.Fatalf("tampered read should succeed (that is the attack): %v", err)
	}
	if b.Stats().Tampered == 0 {
		t.Fatal("tamper not counted")
	}
	// A bus monitor still sees the mismatch between the initiator's
	// provisioned world and the transaction's World — that is what the
	// CRES bus monitor keys on.
	obs := &recordingObserver{}
	b.Subscribe(obs)
	read(cpu, 0x3000, 4)
	if obs.txs[0].World != WorldSecure {
		t.Fatal("observer did not see tampered attribute")
	}
}

func TestBusStats(t *testing.T) {
	_, b := newTestBus(t)
	cpu := b.Attach("cpu0", WorldNormal)
	cpu.Write(0x1000, []byte{1})
	read(cpu, 0x1000, 1)
	cpu.Fetch(0x1000, 1)
	read(cpu, 0x3000, 1) // fault
	st := b.Stats()
	if st.Total != 4 || st.Reads != 2 || st.Writes != 1 || st.Execs != 1 || st.Faults != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDMATransfer(t *testing.T) {
	e, b := newTestBus(t)
	dma, err := NewDMAEngine(e, b, "dma0", WorldNormal, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i)
	}
	if err := b.Memory().Poke(0x1000, src); err != nil {
		t.Fatal(err)
	}
	var done bool
	var derr error
	dma.Transfer(0x1000, 0x1800, 100, func(err error) { done, derr = true, err })
	if dma.Active() != 1 {
		t.Fatalf("Active = %d, want 1", dma.Active())
	}
	e.Drain(1000)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if derr != nil {
		t.Fatal(derr)
	}
	got, _ := b.Memory().Peek(0x1800, 100)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], src[i])
		}
	}
	if dma.Active() != 0 {
		t.Fatalf("Active = %d after completion", dma.Active())
	}
}

func TestDMATransferAbortsOnGate(t *testing.T) {
	e, b := newTestBus(t)
	dma, err := NewDMAEngine(e, b, "dma0", WorldNormal, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Quarantine the DMA engine mid-flight: gate installed immediately.
	b.AddGate(GateFunc(func(tx Transaction) *Fault {
		if tx.Initiator == "dma0" {
			return &Fault{Code: FaultBlocked, Addr: tx.Addr, Detail: "dma quarantined"}
		}
		return nil
	}))
	var derr error
	dma.Transfer(0x1000, 0x1800, 64, func(err error) { derr = err })
	e.Drain(1000)
	if derr == nil {
		t.Fatal("quarantined DMA transfer completed")
	}
	var f *Fault
	if !errors.As(derr, &f) || f.Code != FaultBlocked {
		t.Fatalf("err = %v, want blocked fault", derr)
	}
}

func TestDMAZeroLength(t *testing.T) {
	e, b := newTestBus(t)
	dma, err := NewDMAEngine(e, b, "dma0", WorldNormal, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	dma.Transfer(0x1000, 0x1800, 0, func(err error) {
		called = true
		if err != nil {
			t.Errorf("zero-length transfer err = %v", err)
		}
	})
	e.Drain(10)
	if !called {
		t.Fatal("done not called for zero-length transfer")
	}
}

func TestDMAConfigValidation(t *testing.T) {
	e, b := newTestBus(t)
	if _, err := NewDMAEngine(e, b, "d", WorldNormal, 0, 100); err == nil {
		t.Fatal("zero chunk accepted")
	}
	if _, err := NewDMAEngine(e, b, "d", WorldNormal, 16, 0); err == nil {
		t.Fatal("zero per-chunk accepted")
	}
}
