package response

import (
	"errors"
	"fmt"
	"sort"

	"cres/internal/hw"
	"cres/internal/sim"
)

// ActionKind classifies an executed countermeasure.
type ActionKind uint8

// Countermeasure kinds.
const (
	// ActIsolate blocks a bus initiator behind a hardware gate.
	ActIsolate ActionKind = iota + 1
	// ActRestore removes an initiator's isolation gate.
	ActRestore
	// ActHaltCore clock-gates a processing core.
	ActHaltCore
	// ActResumeCore restarts a halted core.
	ActResumeCore
	// ActLockActuator forces an actuator to its fail-safe value.
	ActLockActuator
	_ // unused; reserving the slot keeps the values below fixed
	// ActFlushCache invalidates cache contents.
	ActFlushCache
	// ActPartitionCache enables world-partitioning of the shared cache.
	ActPartitionCache
	_ // unused, as above
	// ActQuarantineLink cuts an M2M link towards a compromised
	// neighbour (cooperative response).
	ActQuarantineLink
	// ActRestoreLink re-opens a quarantined M2M link after recovery.
	ActRestoreLink
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActIsolate:
		return "isolate"
	case ActRestore:
		return "restore"
	case ActHaltCore:
		return "halt-core"
	case ActResumeCore:
		return "resume-core"
	case ActLockActuator:
		return "lock-actuator"
	case ActFlushCache:
		return "flush-cache"
	case ActPartitionCache:
		return "partition-cache"
	case ActQuarantineLink:
		return "quarantine-link"
	case ActRestoreLink:
		return "restore-link"
	default:
		return fmt.Sprintf("action(%d)", uint8(k))
	}
}

// Action records one executed countermeasure.
type Action struct {
	At     sim.VirtualTime
	Kind   ActionKind
	Target string
	Reason string
}

// ErrAlreadyIsolated reports a duplicate isolation request.
var ErrAlreadyIsolated = errors.New("response: initiator already isolated")

// ErrNotIsolated reports a restore for a non-isolated initiator.
var ErrNotIsolated = errors.New("response: initiator not isolated")

// Manager executes countermeasures on the platform. Create with
// NewManager. The onAction callback (may be nil) receives every executed
// action, which the security manager records as evidence.
type Manager struct {
	engine   *sim.Engine
	bus      *hw.Bus
	cache    *hw.Cache
	onAction func(Action)

	isolated map[string]hw.GateToken
	// linksCut tracks M2M links this manager quarantined, keyed
	// "local|peer" (see network.go). Lazily allocated.
	linksCut map[string]bool
	history  []Action
}

// NewManager creates a response manager for the platform.
func NewManager(engine *sim.Engine, bus *hw.Bus, cache *hw.Cache, onAction func(Action)) *Manager {
	return &Manager{
		engine:   engine,
		bus:      bus,
		cache:    cache,
		onAction: onAction,
		isolated: make(map[string]hw.GateToken),
	}
}

func (m *Manager) record(kind ActionKind, target, reason string) {
	a := Action{At: m.engine.Now(), Kind: kind, Target: target, Reason: reason}
	m.history = append(m.history, a)
	if m.onAction != nil {
		m.onAction(a)
	}
}

// History returns all executed actions in order.
func (m *Manager) History() []Action {
	out := make([]Action, len(m.history))
	copy(out, m.history)
	return out
}

// IsolateInitiator installs a hardware gate blocking every transaction
// from the named initiator — the paper's "compromised resource can be
// physically isolated from the system".
func (m *Manager) IsolateInitiator(name, reason string) error {
	if _, ok := m.isolated[name]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyIsolated, name)
	}
	tok := m.bus.AddGate(hw.GateFunc(func(tx hw.Transaction) *hw.Fault {
		if tx.Initiator != name {
			return nil
		}
		return &hw.Fault{
			Code: hw.FaultBlocked, Addr: tx.Addr,
			Detail: fmt.Sprintf("initiator %s isolated by response manager: %s", name, reason),
		}
	}))
	m.isolated[name] = tok
	m.record(ActIsolate, name, reason)
	return nil
}

// RestoreInitiator removes an isolation gate (after recovery).
func (m *Manager) RestoreInitiator(name, reason string) error {
	tok, ok := m.isolated[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotIsolated, name)
	}
	m.bus.RemoveGate(tok)
	delete(m.isolated, name)
	m.record(ActRestore, name, reason)
	return nil
}

// Isolated returns the currently isolated initiators, sorted.
func (m *Manager) Isolated() []string {
	out := make([]string, 0, len(m.isolated))
	for n := range m.isolated {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsIsolated reports whether the initiator is currently gated.
func (m *Manager) IsIsolated(name string) bool {
	_, ok := m.isolated[name]
	return ok
}

// HaltCore stops a core.
func (m *Manager) HaltCore(c *hw.Core, reason string) {
	c.Halt()
	m.record(ActHaltCore, c.Name(), reason)
}

// ResumeCore restarts a halted core.
func (m *Manager) ResumeCore(c *hw.Core, reason string) {
	c.Resume()
	m.record(ActResumeCore, c.Name(), reason)
}

// LockActuator forces an actuator to its fail-safe value.
func (m *Manager) LockActuator(a *hw.Actuator, reason string) {
	a.Lock()
	m.record(ActLockActuator, a.Name, reason)
}

// FlushCache invalidates the whole shared cache (covert-channel purge).
func (m *Manager) FlushCache(reason string) {
	m.cache.FlushAll()
	m.record(ActFlushCache, "llc", reason)
}

// PartitionCache enables world-partitioning, closing the cross-world
// eviction channel architecturally.
func (m *Manager) PartitionCache(reason string) {
	m.cache.SetPartitioned(true)
	m.record(ActPartitionCache, "llc", reason)
}
