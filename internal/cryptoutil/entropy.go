package cryptoutil

import (
	"encoding/binary"
	"io"
)

// DeterministicEntropy is an io.Reader producing a reproducible
// pseudo-random byte stream from a seed, suitable for simulation use
// where experiments must be bit-for-bit repeatable. It expands the seed
// with SHA-256 in counter mode. It is NOT a cryptographically secure
// RNG for production use; the simulator substitutes it for the device's
// TRNG.
type DeterministicEntropy struct {
	seed    Digest
	counter uint64
	block   Digest
	avail   int // unconsumed suffix length of block
}

var _ io.Reader = (*DeterministicEntropy)(nil)

// NewDeterministicEntropy returns an entropy stream derived from seed.
func NewDeterministicEntropy(seed []byte) *DeterministicEntropy {
	return &DeterministicEntropy{seed: Sum(seed)}
}

// Reset re-keys the stream in place, exactly as if freshly constructed
// with NewDeterministicEntropy(seed). The batched fleet scratch re-keys
// one pooled reader per provisioning epoch instead of allocating a new
// stream per device.
func (d *DeterministicEntropy) Reset(seed []byte) {
	d.seed = Sum(seed)
	d.counter = 0
	d.avail = 0
}

// Read fills p with pseudo-random bytes. It never fails, and it never
// allocates: the batch verifier draws one coefficient per device from
// such a stream, so a heap-allocating refill would show up straight in
// the fleet's allocs-per-device gate. The block derivation is kept
// bit-identical to the original SumAll(seed, counter) formulation —
// length-prefixed seed then length-prefixed counter — because every
// committed golden transcript depends on this exact stream.
func (d *DeterministicEntropy) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if d.avail == 0 {
			d.counter++
			var in [8 + DigestSize + 8 + 8]byte
			binary.BigEndian.PutUint64(in[:8], DigestSize)
			copy(in[8:], d.seed[:])
			binary.BigEndian.PutUint64(in[8+DigestSize:], 8)
			binary.BigEndian.PutUint64(in[8+DigestSize+8:], d.counter)
			d.block = Sum(in[:])
			d.avail = DigestSize
		}
		c := copy(p, d.block[DigestSize-d.avail:])
		p = p[c:]
		d.avail -= c
	}
	return n, nil
}
