package hw

import (
	"errors"
	"fmt"
	"sort"
)

// Addr is a physical address on the SoC bus.
type Addr uint64

// Perm is a region permission bit set.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Has reports whether p includes all bits of q.
func (p Perm) Has(q Perm) bool { return p&q == q }

// String renders permissions as "rwx" style flags.
func (p Perm) String() string {
	b := []byte("---")
	if p.Has(PermRead) {
		b[0] = 'r'
	}
	if p.Has(PermWrite) {
		b[1] = 'w'
	}
	if p.Has(PermExec) {
		b[2] = 'x'
	}
	return string(b)
}

// World is the execution world of an initiator or the security attribute
// of a memory region, per the two-world TEE model.
type World uint8

// Worlds. Values start at one so the zero value is detectably unset.
const (
	// WorldNormal is the rich, untrusted execution world.
	WorldNormal World = iota + 1
	// WorldSecure is the trusted world (TEE / secure monitor).
	WorldSecure
	// WorldIsolated marks the physically separate security-manager
	// domain of the paper's Characteristic 1: not reachable from either
	// the normal or the secure world of the application processor.
	WorldIsolated
)

// String implements fmt.Stringer.
func (w World) String() string {
	switch w {
	case WorldNormal:
		return "normal"
	case WorldSecure:
		return "secure"
	case WorldIsolated:
		return "isolated"
	default:
		return fmt.Sprintf("world(%d)", uint8(w))
	}
}

// Region is a contiguous range of physical memory with a security
// attribute and permissions.
type Region struct {
	Name string
	Base Addr
	Size uint64
	Perm Perm
	// World is the minimum privilege required to access the region:
	// WorldNormal regions are open to all initiators, WorldSecure
	// regions require secure transactions, WorldIsolated regions are
	// reachable only by the isolated security-manager domain.
	World World

	data []byte
}

// Contains reports whether the region covers [addr, addr+n): addr lies
// inside it, and so do all n bytes, without wrapping past 2^64. An
// access of zero bytes at Base+Size lies outside it, as every other
// access at that address does.
func (r *Region) Contains(addr Addr, n uint64) bool {
	off := uint64(addr - r.Base)
	return off < r.Size && n <= r.Size-off
}

// FaultCode classifies a memory access fault.
type FaultCode uint8

// Fault codes.
const (
	// FaultUnmapped means no region covers the address.
	FaultUnmapped FaultCode = iota + 1
	// FaultPerm means the region forbids the access kind.
	FaultPerm
	// FaultSecurity means a lower-privilege world touched a
	// higher-privilege region.
	FaultSecurity
	// FaultBlocked means a response countermeasure (isolation,
	// quarantine) rejected the transaction.
	FaultBlocked
)

// String implements fmt.Stringer.
func (c FaultCode) String() string {
	switch c {
	case FaultUnmapped:
		return "unmapped"
	case FaultPerm:
		return "permission"
	case FaultSecurity:
		return "security"
	case FaultBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("fault(%d)", uint8(c))
	}
}

// Fault is a memory or bus access fault.
type Fault struct {
	Code   FaultCode
	Addr   Addr
	Region string // empty when unmapped
	Detail string
}

// Error implements error.
func (f *Fault) Error() string {
	if f.Region == "" {
		return fmt.Sprintf("hw: %s fault at %#x: %s", f.Code, uint64(f.Addr), f.Detail)
	}
	return fmt.Sprintf("hw: %s fault at %#x (region %s): %s", f.Code, uint64(f.Addr), f.Region, f.Detail)
}

// AsFault extracts a *Fault from err, if present.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// Memory is the physical address space: a set of non-overlapping regions.
// The zero value is an empty address space ready for AddRegion.
type Memory struct {
	regions []*Region // sorted by Base
	last    *Region   // most recently hit region (lookup cache)
}

// AddRegion maps a new region. Overlap with an existing region is an error.
func (m *Memory) AddRegion(name string, base Addr, size uint64, perm Perm, world World) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("hw: region %q has zero size", name)
	}
	if world == 0 {
		world = WorldNormal
	}
	r := &Region{Name: name, Base: base, Size: size, Perm: perm, World: world, data: make([]byte, size)}
	for _, ex := range m.regions {
		if base < ex.Base+Addr(ex.Size) && ex.Base < base+Addr(size) {
			return nil, fmt.Errorf("hw: region %q [%#x,%#x) overlaps %q", name, uint64(base), uint64(base)+size, ex.Name)
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
	return r, nil
}

// Region returns the named region.
func (m *Memory) Region(name string) (*Region, bool) {
	for _, r := range m.regions {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// Regions returns all regions in address order.
func (m *Memory) Regions() []*Region {
	out := make([]*Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// Find returns the region covering [addr, addr+n). Bus traffic is highly
// local, so the most recently hit region is checked first; misses fall
// back to a binary search over the base-sorted region list.
func (m *Memory) Find(addr Addr, n uint64) (*Region, *Fault) {
	if r := m.last; r != nil && r.Contains(addr, n) {
		return r, nil
	}
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r := m.regions[mid]
		if r.Base+Addr(r.Size) > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(m.regions) && m.regions[lo].Contains(addr, n) {
		m.last = m.regions[lo]
		return m.regions[lo], nil
	}
	return nil, &Fault{Code: FaultUnmapped, Addr: addr, Detail: fmt.Sprintf("no region covers %d bytes", n)}
}

// kindPerm is the permission each transaction kind needs, indexed by
// every TxKind value; kinds without one need none.
var kindPerm = [256]Perm{TxRead: PermRead, TxWrite: PermWrite, TxExec: PermExec}

// check validates an access of kind k from world w. The common case, an
// access inside the last-hit region that its world and permissions
// allow, is decided inline; checkRegions handles everything else.
func (m *Memory) check(addr Addr, n uint64, k TxKind, w World) (*Region, *Fault) {
	if r := m.last; r != nil && r.Contains(addr, n) && w >= r.World && r.Perm.Has(kindPerm[k]) {
		return r, nil
	}
	return m.checkRegions(addr, n, k, w)
}

// checkRegions is check's out-of-line remainder: it finds the region
// covering the access and builds the fault that refuses it, if any.
func (m *Memory) checkRegions(addr Addr, n uint64, k TxKind, w World) (*Region, *Fault) {
	r, f := m.Find(addr, n)
	if f != nil {
		return nil, f
	}
	if w < r.World {
		return nil, &Fault{Code: FaultSecurity, Addr: addr, Region: r.Name,
			Detail: fmt.Sprintf("%s-world access to %s region", w, r.World)}
	}
	if !r.Perm.Has(kindPerm[k]) {
		return nil, &Fault{Code: FaultPerm, Addr: addr, Region: r.Name,
			Detail: fmt.Sprintf("%s access to %s region", k, r.Perm)}
	}
	return r, nil
}

// Peek reads raw bytes bypassing all checks. It models physical
// inspection (debugger / forensic extraction), not a bus access, and is
// used by tests and the attack injector.
func (m *Memory) Peek(addr Addr, n uint64) ([]byte, error) {
	r, f := m.Find(addr, n)
	if f != nil {
		return nil, f
	}
	off := addr - r.Base
	out := make([]byte, n)
	copy(out, r.data[off:uint64(off)+n])
	return out, nil
}

// Poke writes raw bytes bypassing all checks, modelling a physical or
// out-of-band tamper (e.g. fault injection, flash reprogramming).
func (m *Memory) Poke(addr Addr, data []byte) error {
	r, f := m.Find(addr, uint64(len(data)))
	if f != nil {
		return f
	}
	copy(r.data[addr-r.Base:], data)
	return nil
}
