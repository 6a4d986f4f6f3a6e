package edwards25519

// Signed-window Pippenger multi-scalar multiplication for the batch
// verification inner sum. The coefficients are at most 128 bits (they
// are the random linear-combination draws), and the window width is a
// pure function of the point count n: msmWindow picks the w that
// minimises the flush's field multiplications, counting 7 for each
// bucket insertion (a mixed addition of an affine point) and 18 for
// each bucket's share of the weighted aggregation (two projective
// additions). That picks 2 for a handful of points, 6 at 256, 7 at
// 1024 and 10 at 4096. Each point is affine, so an insertion is a
// 7-multiplication mixed addition, and an empty bucket takes its first
// point in one multiplication instead of an addition to the identity.
//
// Against the fixed 6-bit window over projective points this replaced,
// the field multiplications per point fell from 1742 to 644 at n = 4,
// from 223 to 184 at 256, from 185 to 145 at 1024 and from 176 to 110
// at 4096. On a shared 2-vCPU Xeon (medians of 10 interleaved runs of
// BenchmarkMultiScalarMult), the time per point fell from 102 to 45 µs
// at n = 4, held at 11 µs at 256, and fell from 10.2 to 9.4 µs at 1024
// and from 10.1 to 6.6 µs at 4096.

// msmMaxWindow keeps every signed digit, at most 2^(w-1) in magnitude,
// inside an int16.
const msmMaxWindow = 16

// msmDigits is the number of signed radix-2^w digits of a 128-bit
// scalar. The top digit must absorb the carry out of the digit below
// it, which takes w*k >= 130 bits: ⌈129/w⌉ digits would overflow the
// top one at w = 3.
func msmDigits(w int) int { return (130 + w - 1) / w }

// msmWindow returns the window width that minimises the field
// multiplications of an n-point multi-scalar multiplication.
func msmWindow(n int) int {
	best, bestCost := 2, -1
	for w := 2; w <= msmMaxWindow; w++ {
		cost := msmDigits(w) * (7*n + 18<<(w-1))
		if bestCost < 0 || cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// signedDigits writes the signed radix-2^w decomposition of the 128-bit
// scalar s into dst: s = sum dst[i]*2^(w*i) with dst[i] in
// [-2^(w-1), 2^(w-1)). dst must hold msmDigits(w) digits.
func (s *Scalar) signedDigits(w int, dst []int16) {
	half, mask := 1<<(w-1), uint64(1)<<w-1
	carry := 0
	for i := range dst {
		bit := uint(i * w)
		var d int
		if bit < 128 {
			limb, off := bit/64, bit%64
			raw := s.limbs[limb] >> off
			if off+uint(w) > 64 && limb == 0 {
				raw |= s.limbs[1] << (64 - off)
			}
			d = int(raw & mask)
		}
		d += carry
		carry = 0
		if d >= half {
			d -= 1 << w
			carry = 1
		}
		dst[i] = int16(d)
	}
	if carry != 0 {
		panic("edwards25519: signedDigits overflow")
	}
}

// MSMScratch pools the digit matrix and the buckets of
// MultiScalarMult128Vartime, so steady-state callers stay
// allocation-free. The zero value is ready to use.
type MSMScratch struct {
	digits   []int16
	buckets  []Point
	occupied []bool
}

// MultiScalarMult128Vartime sets v = sum scalars[i] * points[i], where
// every scalar is below 2^128 (the caller's contract; SetShortBytes
// values qualify), keeping its working storage in scratch.
// Variable-time.
func (v *Point) MultiScalarMult128Vartime(scalars []Scalar, points []AffineCached, scratch *MSMScratch) *Point {
	if len(scalars) != len(points) {
		panic("edwards25519: mismatched multi-scalar multiplication lengths")
	}
	n := len(scalars)
	v.SetIdentity()
	if n == 0 {
		return v
	}
	w := msmWindow(n)
	k := msmDigits(w)
	nb := 1 << (w - 1) // digits span [-nb, nb), so |d| indexes nb buckets

	// The digit matrix is stored window-major, so each window's pass
	// reads its digits and the points in one sequential sweep.
	if cap(scratch.digits) < n*k {
		scratch.digits = make([]int16, n*k)
	}
	digits := scratch.digits[:n*k]
	var row [65]int16 // msmDigits(2), the most any window needs
	for i := range scalars {
		if scalars[i].limbs[2]|scalars[i].limbs[3] != 0 {
			panic("edwards25519: MultiScalarMult128Vartime scalar exceeds 128 bits")
		}
		scalars[i].signedDigits(w, row[:k])
		for win, d := range row[:k] {
			digits[win*n+i] = d
		}
	}
	if cap(scratch.buckets) < nb {
		scratch.buckets = make([]Point, nb)
		scratch.occupied = make([]bool, nb)
	}
	buckets, occupied := scratch.buckets[:nb], scratch.occupied[:nb]

	for win := k - 1; win >= 0; win-- {
		if win != k-1 {
			for j := 0; j < w; j++ {
				v.Double(v)
			}
		}
		clear(occupied)
		top := -1
		for i, d := range digits[win*n : (win+1)*n] {
			if d == 0 {
				continue
			}
			j, neg := int(d), d < 0
			if neg {
				j = -j
			}
			j--
			bk := &buckets[j]
			switch {
			case !occupied[j]:
				bk.setAffineCached(&points[i], neg)
				occupied[j] = true
				top = max(top, j)
			case neg:
				bk.SubAffine(bk, &points[i])
			default:
				bk.AddAffine(bk, &points[i])
			}
		}
		if top < 0 {
			continue
		}
		// Weighted bucket aggregation: run accumulates the suffix sum
		// of the buckets, so adding it once per index contributes each
		// bucket with weight (index+1).
		run := buckets[top]
		sum := run
		for j := top - 1; j >= 0; j-- {
			if occupied[j] {
				run.Add(&run, &buckets[j])
			}
			sum.Add(&sum, &run)
		}
		v.Add(v, &sum)
	}
	return v
}
