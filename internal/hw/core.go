package hw

import (
	"fmt"

	"cres/internal/sim"
)

// BlockID identifies a basic block of application code. The control-flow
// integrity monitor checks the sequence of executed blocks against the
// program's expected control-flow graph.
type BlockID uint32

// ExecObserver receives basic-block execution events from a core.
// The CFI monitor (paper Characteristic 2) implements ExecObserver.
type ExecObserver interface {
	ObserveExec(core string, block BlockID, at sim.VirtualTime)
}

// Core is a processing element on the SoC. It is a bus initiator that
// additionally reports executed basic blocks to exec observers and can be
// halted by the response manager (a physical countermeasure: clock-gating
// the core). Its bus methods call Bus.issue directly after the halted
// check, one call shorter than Initiator's wrappers, which serve the DMA
// engine and the TEE.
type Core struct {
	name    string
	init    *Initiator
	engine  *sim.Engine
	execObs []ExecObserver
	halted  bool

	blocksExecuted uint64
}

// NewCore creates a core attached to bus in the given world.
func NewCore(engine *sim.Engine, bus *Bus, name string, world World) *Core {
	return &Core{name: name, init: bus.Attach(name, world), engine: engine}
}

// Name returns the core's name.
func (c *Core) Name() string { return c.name }

// World returns the core's provisioned security world.
func (c *Core) World() World { return c.init.World() }

// SubscribeExec registers an exec observer.
func (c *Core) SubscribeExec(o ExecObserver) { c.execObs = append(c.execObs, o) }

// ErrCoreHalted is returned for operations on a halted core.
var ErrCoreHalted = fmt.Errorf("hw: core halted")

// ExecBlock records execution of one basic block and notifies observers.
func (c *Core) ExecBlock(b BlockID) error {
	if c.halted {
		return fmt.Errorf("%w: %s", ErrCoreHalted, c.name)
	}
	c.blocksExecuted++
	for _, o := range c.execObs {
		o.ObserveExec(c.name, b, c.engine.Now())
	}
	return nil
}

// Read issues a bus read from this core into a fresh buffer. Hot paths
// that reuse a buffer should call ReadInto.
func (c *Core) Read(addr Addr, size uint64) ([]byte, error) {
	if c.halted {
		return nil, fmt.Errorf("%w: %s", ErrCoreHalted, c.name)
	}
	buf := make([]byte, size)
	if f := c.init.bus.issue(c.init, TxRead, addr, size, nil, buf); f != nil {
		return nil, f
	}
	return buf, nil
}

// ReadInto issues a bus read of len(buf) bytes from this core into the
// caller-supplied buffer, allocating nothing on the success path.
func (c *Core) ReadInto(addr Addr, buf []byte) error {
	if c.halted {
		return fmt.Errorf("%w: %s", ErrCoreHalted, c.name)
	}
	if f := c.init.bus.issue(c.init, TxRead, addr, uint64(len(buf)), nil, buf); f != nil {
		return f
	}
	return nil
}

// Write issues a bus write from this core.
func (c *Core) Write(addr Addr, data []byte) error {
	if c.halted {
		return fmt.Errorf("%w: %s", ErrCoreHalted, c.name)
	}
	if f := c.init.bus.issue(c.init, TxWrite, addr, uint64(len(data)), data, nil); f != nil {
		return f
	}
	return nil
}

// Fetch issues an instruction fetch from this core.
func (c *Core) Fetch(addr Addr, size uint64) ([]byte, error) {
	if c.halted {
		return nil, fmt.Errorf("%w: %s", ErrCoreHalted, c.name)
	}
	buf := make([]byte, size)
	if f := c.init.bus.issue(c.init, TxExec, addr, size, nil, buf); f != nil {
		return nil, f
	}
	return buf, nil
}

// Halt stops the core (response countermeasure).
func (c *Core) Halt() { c.halted = true }

// Resume restarts a halted core (recovery).
func (c *Core) Resume() { c.halted = false }

// Halted reports whether the core is halted.
func (c *Core) Halted() bool { return c.halted }

// BlocksExecuted returns the number of basic blocks executed.
func (c *Core) BlocksExecuted() uint64 { return c.blocksExecuted }
