package edwards25519

import "math/big"

// Curve constants, computed once at init from their defining equations
// rather than transcribed as opaque limb dumps: d = -121665/121666,
// sqrtM1 = 2^((p-1)/4), and the basepoint's y = 4/5 with the even
// (non-negative) x recovered by decompression. The point tests pin the
// results against crypto/ed25519, so a bad derivation cannot survive.
var (
	feD     Element // the curve constant d
	feD2    Element // 2d, premultiplied for the addition formulas
	feDInv  Element // 1/d, which turns a cached 2dxy back into 2xy
	feTwo   Element // the Z of a point set from its readdition form
	sqrtM1  Element // sqrt(-1)
	genB    affinePoint
	genBalt AffineCached // the basepoint in readdition form
)

func feFromBigInit(x *big.Int) Element {
	p := new(big.Int).Lsh(big.NewInt(1), 255)
	p.Sub(p, big.NewInt(19))
	x = new(big.Int).Mod(x, p)
	be := x.Bytes()
	var le [32]byte
	for i, b := range be {
		le[len(be)-1-i] = b
	}
	var v Element
	if !v.SetBytes(le[:]) {
		panic("edwards25519: init constant out of range")
	}
	return v
}

func init() {
	p := new(big.Int).Lsh(big.NewInt(1), 255)
	p.Sub(p, big.NewInt(19))

	// d = -121665 * 121666^-1 mod p
	d := new(big.Int).ModInverse(big.NewInt(121666), p)
	d.Mul(d, big.NewInt(-121665))
	d.Mod(d, p)
	feD = feFromBigInit(d)
	feD2 = feFromBigInit(new(big.Int).Lsh(d, 1))
	feDInv = feFromBigInit(new(big.Int).ModInverse(d, p))
	feTwo = feFromBigInit(big.NewInt(2))

	// sqrtM1 = 2^((p-1)/4) mod p
	e := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 2)
	sqrtM1 = feFromBigInit(new(big.Int).Exp(big.NewInt(2), e, p))

	// Basepoint: y = 4/5, x the even root (sign bit 0).
	y := new(big.Int).ModInverse(big.NewInt(5), p)
	y.Mul(y, big.NewInt(4))
	y.Mod(y, p)
	genB.y = feFromBigInit(y)
	var u, w Element
	var y2 Element
	y2.Square(&genB.y)
	u.Sub(&y2, &feOne) // y^2 - 1
	w.Mul(&y2, &feD)   // d*y^2
	w.Add(&w, &feOne)  // d*y^2 + 1
	if !genB.x.SqrtRatio(&u, &w) {
		panic("edwards25519: basepoint is off-curve")
	}
	// SqrtRatio returns the non-negative root, which is the basepoint's
	// canonical x already.
	genBalt.fromAffine(&genB)

	initBasepointTable()
}
