package edwards25519

// useADX reports whether the CPU has BMI2 (MULX) and ADX (ADCX, ADOX),
// the instructions mulADX needs. It is set once, at package init.
var useADX = hasBMI2ADX()

// hasBMI2ADX reads CPUID leaf 7's EBX: bit 8 is BMI2, bit 19 is ADX.
func hasBMI2ADX() bool {
	if maxLeaf, _ := cpuid(0); maxLeaf < 7 {
		return false
	}
	_, ebx := cpuid(7)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}

// cpuid returns EAX and EBX of CPUID leaf, subleaf 0.
func cpuid(leaf uint32) (eax, ebx uint32)

// mulADX sets v = a * b with the limbs mulGeneric computes. It writes v
// only after its last load, so v may alias a, b or both.
//
//go:noescape
func mulADX(v, a, b *Element)
