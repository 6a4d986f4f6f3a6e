// Package edwards25519 implements the minimal subset of edwards25519
// group arithmetic that the batch signature verifier needs: field and
// scalar arithmetic, point decompression with the same strictness as
// crypto/ed25519, fixed-base and variable-base scalar multiplication,
// a 128-bit-coefficient Pippenger multi-scalar multiplication, and an
// RFC 8032 signer that signs a batch of messages with one shared field
// inversion and also emits each commitment point in affine form.
// Field elements and scalars share one layout, four 64-bit
// little-endian limbs.
//
// Field multiplication, which every operation above is built on, runs
// an assembly kernel on amd64 CPUs with BMI2 and ADX: MULX forms the
// sixteen products and ADCX and ADOX add them in two carry chains that
// run side by side. Package init picks it once from CPUID; every other
// CPU and architecture runs the same multiply written in Go. The two
// give the same limbs for every input, so no signature, R hint,
// verdict or digest depends on which one ran.
//
// The API deliberately mirrors the shape of filippo.io/edwards25519
// (Point, Scalar, SetBytes/Bytes, SetUniformBytes) so that swapping in
// that module — which this repository cannot vendor — is a mechanical
// change. Unlike that module, every operation here is VARIABLE-TIME:
// execution time depends on secret data. That is sound for this
// repository because all keys are synthetic simulation state derived
// from public seeds (see the cres fleet model), and it is what buys
// the fixed-base signer its speed. Do not lift this package into a
// system that handles real secrets.
package edwards25519
