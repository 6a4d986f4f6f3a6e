//go:build !amd64

package edwards25519

// useADX is false off amd64, so Mul compiles to mulGeneric alone.
const useADX = false

// mulADX exists off amd64 only so that Mul's dead branch compiles.
func mulADX(v, a, b *Element) { v.mulGeneric(a, b) }
