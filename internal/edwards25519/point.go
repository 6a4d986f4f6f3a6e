package edwards25519

// Point is a point on edwards25519 in extended (P3) coordinates:
// x = X/Z, y = Y/Z, T = XY/Z. All operations are variable-time; see
// the package comment for why that is acceptable here.
type Point struct {
	x, y, z, t Element
}

// affinePoint is a point with Z = 1, used for decompressed inputs and
// precomputed tables.
type affinePoint struct {
	x, y Element
}

// AffineCached is an affine point in the "readdition" form consumed by
// the mixed addition formulas: (y+x, y-x, 2dxy).
type AffineCached struct {
	yPlusX, yMinusX, t2d Element
}

func (c *AffineCached) fromAffine(a *affinePoint) {
	c.yPlusX.Add(&a.y, &a.x)
	c.yMinusX.Sub(&a.y, &a.x)
	c.t2d.Mul(&a.x, &a.y)
	c.t2d.Mul(&c.t2d, &feD2)
}

// SetBytes decodes a canonical 32-byte point encoding into c,
// reporting whether the encoding was valid.
func (c *AffineCached) SetBytes(in []byte) bool {
	var a affinePoint
	if !a.decompress(in) {
		return false
	}
	c.fromAffine(&a)
	return true
}

// SetHinted sets c to the affine point (x, y) claimed to be the
// decompression of enc, verifying the claim with a curve-equation and
// re-encoding check instead of a square root. Returns false — leaving
// c unspecified — if the hint does not decode exactly to enc.
func (c *AffineCached) SetHinted(x, y *Element, enc *[32]byte) bool {
	var a affinePoint
	if !a.setHinted(x, y, enc) {
		return false
	}
	c.fromAffine(&a)
	return true
}

// Negate sets c = -q and returns c: negating x swaps y+x with y-x and
// flips the sign of 2dxy.
func (c *AffineCached) Negate(q *AffineCached) *AffineCached {
	c.yPlusX, c.yMinusX = q.yMinusX, q.yPlusX
	c.t2d.Negate(&q.t2d)
	return c
}

// pointCached is a projective point in readdition form, for P3 + P3
// additions: (Y+X, Y-X, 2Z, 2dT). ScalarMultVartime precomputes its
// small multiples in this form so each addition reuses them.
type pointCached struct {
	yPlusX, yMinusX, z2, t2d Element
}

// fromPoint caches p for repeated addition and returns c.
func (c *pointCached) fromPoint(p *Point) *pointCached {
	c.yPlusX.Add(&p.y, &p.x)
	c.yMinusX.Sub(&p.y, &p.x)
	c.z2.Add(&p.z, &p.z)
	c.t2d.Mul(&p.t, &feD2)
	return c
}

// SetIdentity sets v to the group identity (0, 1) and returns v.
func (v *Point) SetIdentity() *Point {
	v.x = feZero
	v.y = feOne
	v.z = feOne
	v.t = feZero
	return v
}

func (v *Point) setAffine(a *affinePoint) *Point {
	v.x = a.x
	v.y = a.y
	v.z = feOne
	v.t.Mul(&a.x, &a.y)
	return v
}

// setAffineCached sets v to q, or to -q if neg, in one multiplication:
// (y+x) and (y-x) give X = 2x and Y = 2y at Z = 2, and T = 2xy is
// 2dxy divided by d. It is how an empty multi-scalar bucket takes its
// first point, instead of adding it to the identity.
func (v *Point) setAffineCached(q *AffineCached, neg bool) *Point {
	v.y.Add(&q.yPlusX, &q.yMinusX)
	v.z = feTwo
	v.t.Mul(&q.t2d, &feDInv)
	if neg {
		v.x.Sub(&q.yMinusX, &q.yPlusX)
		v.t.Negate(&v.t)
	} else {
		v.x.Sub(&q.yPlusX, &q.yMinusX)
	}
	return v
}

// IsIdentity reports whether v is the group identity. Because the
// batch equation is cofactorless, this is an exact encoding-level
// check: X = 0 and Y = Z.
func (v *Point) IsIdentity() bool {
	return v.x.IsZero() && v.y.Equal(&v.z)
}

// Negate sets v = -p and returns v.
func (v *Point) Negate(p *Point) *Point {
	v.x.Negate(&p.x)
	v.y = p.y
	v.z = p.z
	v.t.Negate(&p.t)
	return v
}

// Add sets v = p + q (extended coordinates, add-2008-hwcd-3, 8M+1D).
func (v *Point) Add(p, q *Point) *Point {
	var qc pointCached
	qc.fromPoint(q)
	return v.addCached(p, &qc)
}

func (v *Point) addCached(p *Point, q *pointCached) *Point {
	var ypx, ymx, a, b, c, d, e, f, g, h Element
	ymx.Sub(&p.y, &p.x)
	ypx.Add(&p.y, &p.x)
	a.Mul(&ymx, &q.yMinusX)
	b.Mul(&ypx, &q.yPlusX)
	c.Mul(&p.t, &q.t2d)
	d.Mul(&p.z, &q.z2)
	e.Sub(&b, &a)
	f.Sub(&d, &c)
	g.Add(&d, &c)
	h.Add(&b, &a)
	v.x.Mul(&e, &f)
	v.y.Mul(&g, &h)
	v.z.Mul(&f, &g)
	v.t.Mul(&e, &h)
	return v
}

// subCached sets v = p - q; negating a cached point swaps its y±x
// fields and flips the sign of its 2dT term, which surfaces here as
// crossed A/B products and swapped F/G sums.
func (v *Point) subCached(p *Point, q *pointCached) *Point {
	var ypx, ymx, a, b, c, d, e, f, g, h Element
	ymx.Sub(&p.y, &p.x)
	ypx.Add(&p.y, &p.x)
	a.Mul(&ymx, &q.yPlusX)
	b.Mul(&ypx, &q.yMinusX)
	c.Mul(&p.t, &q.t2d)
	d.Mul(&p.z, &q.z2)
	e.Sub(&b, &a)
	f.Add(&d, &c)
	g.Sub(&d, &c)
	h.Add(&b, &a)
	v.x.Mul(&e, &f)
	v.y.Mul(&g, &h)
	v.z.Mul(&f, &g)
	v.t.Mul(&e, &h)
	return v
}

// AddAffine sets v = p + q for a cached affine q (7M mixed addition).
func (v *Point) AddAffine(p *Point, q *AffineCached) *Point {
	var ypx, ymx, a, b, c, d, e, f, g, h Element
	ymx.Sub(&p.y, &p.x)
	ypx.Add(&p.y, &p.x)
	a.Mul(&ymx, &q.yMinusX)
	b.Mul(&ypx, &q.yPlusX)
	c.Mul(&p.t, &q.t2d)
	d.Add(&p.z, &p.z)
	e.Sub(&b, &a)
	f.Sub(&d, &c)
	g.Add(&d, &c)
	h.Add(&b, &a)
	v.x.Mul(&e, &f)
	v.y.Mul(&g, &h)
	v.z.Mul(&f, &g)
	v.t.Mul(&e, &h)
	return v
}

// SubAffine sets v = p - q for a cached affine q.
func (v *Point) SubAffine(p *Point, q *AffineCached) *Point {
	var ypx, ymx, a, b, c, d, e, f, g, h Element
	ymx.Sub(&p.y, &p.x)
	ypx.Add(&p.y, &p.x)
	a.Mul(&ymx, &q.yPlusX) // crossed vs AddAffine: negating q swaps y±x
	b.Mul(&ypx, &q.yMinusX)
	c.Mul(&p.t, &q.t2d)
	d.Add(&p.z, &p.z)
	e.Sub(&b, &a)
	f.Add(&d, &c) // and flips the sign of 2dxy
	g.Sub(&d, &c)
	h.Add(&b, &a)
	v.x.Mul(&e, &f)
	v.y.Mul(&g, &h)
	v.z.Mul(&f, &g)
	v.t.Mul(&e, &h)
	return v
}

// Double sets v = 2*p (dbl-2008-hwcd, 4M+4S).
func (v *Point) Double(p *Point) *Point {
	var a, b, c, e, f, g, h Element
	a.Square(&p.x)
	b.Square(&p.y)
	c.Square(&p.z)
	c.Add(&c, &c)
	h.Add(&a, &b)
	e.Add(&p.x, &p.y)
	e.Square(&e)
	e.Sub(&h, &e)
	g.Sub(&a, &b)
	f.Add(&c, &g)
	v.x.Mul(&e, &f)
	v.y.Mul(&g, &h)
	v.z.Mul(&f, &g)
	v.t.Mul(&e, &h)
	return v
}

// decompress sets a to the affine point encoded by in, applying the
// same strictness as crypto/ed25519's internal decoder: the y
// coordinate must be canonical (below p), and an encoding selecting
// the "negative zero" x is rejected. Returns false for any encoding
// crypto/ed25519 would reject at parse time.
func (a *affinePoint) decompress(in []byte) bool {
	if len(in) != 32 {
		return false
	}
	var yb [32]byte
	copy(yb[:], in)
	signBit := yb[31]&0x80 != 0
	yb[31] &= 0x7f
	if !a.y.SetBytes(yb[:]) {
		return false
	}
	// x^2 = (y^2 - 1) / (d y^2 + 1)
	var u, w, y2 Element
	y2.Square(&a.y)
	u.Sub(&y2, &feOne)
	w.Mul(&y2, &feD)
	w.Add(&w, &feOne)
	if !a.x.SqrtRatio(&u, &w) {
		return false
	}
	if a.x.IsZero() && signBit {
		return false // -0 is not a canonical encoding
	}
	if a.x.IsNegative() != signBit {
		a.x.Negate(&a.x)
	}
	return true
}

// SetBytes decodes a canonical 32-byte point encoding into v,
// reporting whether the encoding was valid.
func (v *Point) SetBytes(in []byte) bool {
	var a affinePoint
	if !a.decompress(in) {
		return false
	}
	v.setAffine(&a)
	return true
}

// Bytes returns the canonical 32-byte encoding of v.
func (v *Point) Bytes() [32]byte {
	var zInv, x, y Element
	zInv.Invert(&v.z)
	x.Mul(&v.x, &zInv)
	y.Mul(&v.y, &zInv)
	out := y.Bytes()
	if x.IsNegative() {
		out[31] |= 0x80
	}
	return out
}

// setHinted loads the affine point (x, y) claimed to decode from enc,
// verifying the claim instead of running a square root: the point must
// satisfy the curve equation -x^2 + y^2 = 1 + d x^2 y^2, and its
// canonical encoding must equal enc byte for byte. The second check
// makes the hint binding — an attacker-controlled hint can only fail,
// never redirect the verifier to a different point. Costs ~5M instead
// of the ~250M of a full decompression.
func (a *affinePoint) setHinted(x, y *Element, enc *[32]byte) bool {
	var x2, y2, lhs, rhs Element
	x2.Square(x)
	y2.Square(y)
	lhs.Sub(&y2, &x2)
	rhs.Mul(&x2, &y2)
	rhs.Mul(&rhs, &feD)
	rhs.Add(&rhs, &feOne)
	if !lhs.Equal(&rhs) {
		return false
	}
	out := y.Bytes()
	if x.IsNegative() {
		out[31] |= 0x80
	}
	if out != *enc {
		return false
	}
	a.x = *x
	a.y = *y
	return true
}
