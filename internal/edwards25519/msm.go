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
// at 4096. On a shared 2-vCPU Xeon with BMI2 and ADX (medians of 6
// interleaved runs of BenchmarkMultiScalarMult), a point costs 14.9 µs
// at n = 4, 3.6 µs at 256, 3.4 µs at 1024 and 2.6 µs at 4096.

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

// Runner runs one stage of indexed tasks for the split curve work: Run
// calls task(worker, i) exactly once for every i in [0, n) and returns
// when every call has returned. worker lies in [0, Workers()) and no
// two concurrent calls share one, so a task may use per-worker
// scratch. harness.Crew implements it; a nil Runner runs every task on
// the caller, in index order. Every split here regroups independent,
// exactly computed pieces, so its result is the same at any width.
type Runner interface {
	Workers() int
	Run(n int, task func(worker, i int))
}

// runTasks runs n tasks on r, or on the caller when r is nil.
func runTasks(r Runner, n int, task func(worker, i int)) {
	if r == nil {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	r.Run(n, task)
}

// workersOf is the number of per-worker scratch slots r needs.
func workersOf(r Runner) int {
	if r == nil {
		return 1
	}
	return r.Workers()
}

// MSMScratch pools the working storage of MultiScalarMultVartime — the
// digit matrix, each worker's buckets, and each task's result — so
// steady-state callers stay allocation-free. The zero value is ready
// to use; a scratch must not be copied once used.
type MSMScratch struct {
	digits   []int16
	buckets  []Point // Workers() runs of nb buckets
	occupied []bool  // parallel to buckets
	sums     []Point // per window: its weighted bucket sum
	filled   []bool  // per window: whether any digit was nonzero
	fixed    Point   // [base]B
	products []Point // per variable-base term: [coeffs[j]]terms[j]

	// The call in progress, read by its tasks.
	base          Scalar
	coeffs        []Scalar
	terms         []Point
	points        []AffineCached
	n, w, windows int
	task          func(worker, i int) // runTask, bound once
}

// MultiScalarMultVartime sets v = [base]B + sum_j [coeffs[j]]terms[j]
// + sum_i [scalars[i]]points[i], where every scalars[i] is below 2^128
// (the caller's contract; SetShortBytes values qualify): the shape of
// a batch signature check. The work runs as tasks on r — one Pippenger
// bucket sum per window, the fixed-base term, and one term per
// variable base — and the caller adds the results in a fixed order,
// the windows in window order, so v is the same point in the same
// coordinates at any width. Variable-time.
func (v *Point) MultiScalarMultVartime(base *Scalar, coeffs []Scalar, terms []Point, scalars []Scalar, points []AffineCached, sc *MSMScratch, r Runner) *Point {
	if len(scalars) != len(points) || len(coeffs) != len(terms) {
		panic("edwards25519: mismatched multi-scalar multiplication lengths")
	}
	n := len(scalars)
	sc.n, sc.windows = n, 0
	if n > 0 {
		sc.w = msmWindow(n)
		sc.windows = msmDigits(sc.w)
		sc.prepare(scalars, workersOf(r))
	}
	sc.base, sc.coeffs, sc.terms, sc.points = *base, coeffs, terms, points
	if cap(sc.products) < len(terms) {
		sc.products = make([]Point, len(terms))
	}
	if sc.task == nil {
		sc.task = sc.runTask
	}
	runTasks(r, sc.windows+1+len(terms), sc.task)

	*v = sc.fixed
	for j := range terms {
		v.Add(v, &sc.products[j])
	}
	if n > 0 {
		var msm Point
		msm.SetIdentity()
		for win := sc.windows - 1; win >= 0; win-- {
			if win != sc.windows-1 {
				for j := 0; j < sc.w; j++ {
					msm.Double(&msm)
				}
			}
			if sc.filled[win] {
				msm.Add(&msm, &sc.sums[win])
			}
		}
		v.Add(v, &msm)
	}
	sc.coeffs, sc.terms, sc.points = nil, nil, nil
	return v
}

// prepare writes the digit matrix and sizes the bucket and window
// storage for an n-point sum on workers workers.
func (sc *MSMScratch) prepare(scalars []Scalar, workers int) {
	n, k := sc.n, sc.windows
	// The digit matrix is stored window-major, so each window's task
	// reads its digits and the points in one sequential sweep.
	if cap(sc.digits) < n*k {
		sc.digits = make([]int16, n*k)
	}
	digits := sc.digits[:n*k]
	var row [65]int16 // msmDigits(2), the most any window needs
	for i := range scalars {
		if scalars[i].limbs[2]|scalars[i].limbs[3] != 0 {
			panic("edwards25519: MultiScalarMultVartime scalar exceeds 128 bits")
		}
		scalars[i].signedDigits(sc.w, row[:k])
		for win, d := range row[:k] {
			digits[win*n+i] = d
		}
	}
	nb := 1 << (sc.w - 1) // digits span [-nb, nb), so |d| indexes nb buckets
	if cap(sc.buckets) < workers*nb {
		sc.buckets = make([]Point, workers*nb)
		sc.occupied = make([]bool, workers*nb)
	}
	if cap(sc.sums) < k {
		sc.sums = make([]Point, k)
		sc.filled = make([]bool, k)
	}
}

// runTask is task i of the call in progress: a window's bucket sum,
// then the fixed-base term, then the variable-base terms.
func (sc *MSMScratch) runTask(worker, i int) {
	switch {
	case i < sc.windows:
		sc.window(worker, i)
	case i == sc.windows:
		sc.fixed.ScalarBaseMultVartime(&sc.base)
	default:
		j := i - sc.windows - 1
		sc.products[j].ScalarMultVartime(&sc.coeffs[j], &sc.terms[j])
	}
}

// window sums window win's points into sc.sums[win] with worker's
// buckets.
func (sc *MSMScratch) window(worker, win int) {
	n := sc.n
	nb := 1 << (sc.w - 1)
	buckets := sc.buckets[worker*nb : (worker+1)*nb]
	occupied := sc.occupied[worker*nb : (worker+1)*nb]
	clear(occupied)
	top := -1
	for i, d := range sc.digits[win*n : (win+1)*n] {
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
			bk.setAffineCached(&sc.points[i], neg)
			occupied[j] = true
			top = max(top, j)
		case neg:
			bk.SubAffine(bk, &sc.points[i])
		default:
			bk.AddAffine(bk, &sc.points[i])
		}
	}
	sc.filled[win] = top >= 0
	if top < 0 {
		return
	}
	// Weighted bucket aggregation: run accumulates the suffix sum of
	// the buckets, so adding it once per index contributes each bucket
	// with weight (index+1).
	run := buckets[top]
	sum := run
	for j := top - 1; j >= 0; j-- {
		if occupied[j] {
			run.Add(&run, &buckets[j])
		}
		sum.Add(&sum, &run)
	}
	sc.sums[win] = sum
}
