package fleet

import (
	"encoding/binary"
	"math"
)

// configEncodingLabel version-tags the canonical Config encoding; bump
// it whenever a field is added or reinterpreted so old store digests
// can never alias new configurations.
const configEncodingLabel = "fleet-config/v1"

// AppendCanonical appends the config's canonical byte encoding to dst
// and returns the extended slice. Like Summary.AppendCanonical it is a
// fixed-width big-endian field walk — label, scalar knobs, then the
// length-prefixed share list with floats as IEEE-754 bit patterns —
// with no maps and no Go struct formatting, so two configs encode
// identically iff they describe the same fleet workload. Seed is
// deliberately EXCLUDED: the result store keys a cell by (experiment,
// seed, config digest), so the digest must name the workload shape,
// not one run of it.
func (c Config) AppendCanonical(dst []byte) []byte {
	put := func(v int64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		dst = append(dst, b[:]...)
	}
	putBytes := func(p []byte) {
		put(int64(len(p)))
		dst = append(dst, p...)
	}
	putBytes([]byte(configEncodingLabel))
	put(int64(c.Size))
	put(int64(c.TamperEvery))
	put(int64(c.TamperOffset))
	put(int64(c.BatchSize))
	put(int64(c.ShardSize))
	put(int64(c.SampleK))
	// The timing model's constants keep the slots their config fields
	// held, so the digests of stored configs do not move.
	put(int64(Latency))
	put(int64(Jitter))
	put(int64(DispatchCost))
	put(int64(AppraiseCost))
	put(int64(len(c.Shares)))
	for _, sh := range c.Shares {
		putBytes([]byte(sh.Label))
		dst = append(dst, sh.Firmware[:]...)
		putBytes([]byte(sh.FirmwareDesc))
		put(int64(math.Float64bits(sh.Fraction)))
		put(int64(math.Float64bits(sh.TamperRate)))
	}
	return dst
}
