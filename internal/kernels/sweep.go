package kernels

// The coordinate-ordered scan: the same exact answer as a flat scan over
// all the rows, from a fraction of the distance evaluations. Sweep is the
// walk; the kNN-join's reducers run it into a TopKAcc (TopKSweep), the
// serving engine into a k = 1 TopKAcc or a compact Shortlist.
//
// One coordinate difference is a lower bound on the distance, and it holds
// in floating point with no slack: sqDist and every lane of sqDist4 sum the
// non-negative terms (q[t]−x[t])² in ascending t, and rounding is monotone,
// so once the term of coordinate `axis` is in, the running sum — and the
// final d² — is never below that term as computed. A row whose axis term
// alone strictly exceeds the sink's threshold therefore cannot enter it,
// and with the rows sorted on that axis neither can any row beyond it on
// the same side. The threshold only falls, so a side closed once stays
// closed. Ties (term == threshold) keep walking, because a tied row with a
// lower index still displaces the kept one. A TopKAcc's threshold is its
// k-th exact distance; a Shortlist's is its admission threshold, no smaller
// than the exact distance of a row it already holds (Shortlist.Threshold).
//
// The matrix stays in its own row order — the sweep goes through a
// permutation — so the lowest-row-index rule means what it means for a flat
// scan, and the result does not depend on the order rows are fed in.

import (
	"math"
	"slices"
	"sort"
)

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }

// SweepAxis picks the coordinate TopKSweep sorts a block on: the one whose
// finite values span the widest range (the lowest such axis on ties, axis 0
// when no coordinate is finite). Any axis is correct; a wide one prunes.
func SweepAxis(data []float64, dim int) int {
	if dim < 1 {
		panic("kernels: SweepAxis needs dim >= 1")
	}
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for t := range lo {
		lo[t], hi[t] = inf, -inf
	}
	for ; len(data) >= dim; data = data[dim:] {
		for t, v := range data[:dim] {
			if finite(v) {
				lo[t], hi[t] = min(lo[t], v), max(hi[t], v)
			}
		}
	}
	axis, widest := 0, -inf
	for t := range lo {
		if span := hi[t] - lo[t]; span > widest {
			axis, widest = t, span
		}
	}
	return axis
}

// SweepOrder appends to order the rows of data sorted ascending by (axis
// coordinate, row index), and to coord their axis coordinates in that
// order, and returns both. Rows whose axis coordinate is NaN or ±Inf are
// left out: their distance to any query is +Inf or NaN, which TopKAcc
// rejects anyway.
func SweepOrder(data []float64, dim, axis int, order []int32, coord []float64) ([]int32, []float64) {
	n := len(data) / dim
	for r := 0; r < n; r++ {
		if finite(data[r*dim+axis]) {
			order = append(order, int32(r))
		}
	}
	// Finite coordinates and distinct rows: plain < is a total order here,
	// and no two elements compare equal.
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := data[int(a)*dim+axis], data[int(b)*dim+axis]
		if ca < cb || (ca == cb && a < b) {
			return -1
		}
		return 1
	})
	for _, r := range order {
		coord = append(coord, data[int(r)*dim+axis])
	}
	return order, coord
}

// RowOrder returns every row of data sorted ascending by (axis coordinate,
// row index) — SweepOrder's order — then, in row order, the rows whose axis
// coordinate is NaN or ±Inf; and coord[row], each row's axis coordinate with
// +Inf standing for a non-finite one. The serving index is filled in this
// order beside live queries, so it is O(n): a stable byte-wise LSD radix
// sort on the order-preserving bit pattern, skipping bytes all keys share.
func RowOrder(data []float64, dim, axis int) (order []int32, coord []float64) {
	n := len(data) / dim
	coord = make([]float64, n)
	keys, order := make([]uint64, n), make([]int32, n)
	var hist [8][256]int
	for r := range coord {
		c, k := data[r*dim+axis], ^uint64(0) // above every finite key
		if finite(c) {
			// c+0 folds −0 into +0: equal coordinates must share a key.
			if k = math.Float64bits(c + 0); k>>63 != 0 {
				k = ^k
			} else {
				k |= 1 << 63
			}
		} else {
			c = inf
		}
		coord[r], keys[r], order[r] = c, k, int32(r)
		for b := range hist {
			hist[b][byte(k>>(8*b))]++
		}
	}
	keys2, order2 := make([]uint64, n), make([]int32, n)
	for b := range hist {
		h := &hist[b]
		if n == 0 || h[byte(keys[0]>>(8*b))] == n {
			continue
		}
		pos := 0
		for d, c := range h {
			h[d], pos = pos, pos+c
		}
		for i, k := range keys {
			d := byte(k >> (8 * b))
			keys2[h[d]], order2[h[d]] = k, order[i]
			h[d]++
		}
		keys, keys2, order, order2 = keys2, keys, order2, order
	}
	return order, coord
}

// Sweep is the outward walk of every coordinate-ordered scan: over n
// postings whose axis coordinate coord(i) never decreases with i, for a
// query at qa on that axis, into a sink that reports its current threshold
// (thr; it only falls as rows are evaluated) and evaluates postings
// [lo, hi) on request (eval; lo == hi happens).
//
// It starts at the query's position on the axis and hands eval strips of at
// most nnTile postings, each time from the side whose next posting is
// nearer. Before a strip is evaluated, postings whose squared axis gap
// strictly exceeds thr() are trimmed off its far end and the side is closed;
// while the threshold is +Inf nothing closes. A query whose axis coordinate
// is not finite has no eligible neighbor and evaluates nothing.
func Sweep(n int, qa float64, coord func(i int) float64, thr func() float64, eval func(lo, hi int)) {
	if !finite(qa) {
		return
	}
	// The kernel's own term for this axis, operand order included.
	gap2 := func(i int) float64 {
		d := qa - coord(i)
		return d * d
	}
	// Postings [0, l) lie left of the query and are taken from l downward;
	// postings [r, n) lie at or right of it and are taken from r upward.
	r := sort.Search(n, func(i int) bool { return coord(i) >= qa })
	l := r
	for l > 0 || r < n {
		t := thr()
		if l > 0 && (r == n || gap2(l-1) <= gap2(r)) {
			lo := max(0, l-nnTile)
			// gap2 falls as i rises on this side: keep the postings from the
			// first one inside the threshold.
			keep := lo + sort.Search(l-lo, func(i int) bool { return !(gap2(lo+i) > t) })
			eval(keep, l)
			if l = lo; keep > lo {
				l = 0
			}
		} else {
			hi := min(n, r+nnTile)
			keep := r + sort.Search(hi-r, func(i int) bool { return gap2(r+i) > t })
			eval(r, keep)
			if r = hi; keep < hi {
				r = n
			}
		}
	}
}

// TopKSweep scans the rows listed in order — SweepOrder's output for this
// data and axis, with coord their axis coordinates — into acc, which the
// caller has Reset for this query, and returns how many distances it
// evaluated. The kept set is exactly what TopKRows over all of order (or
// TopKRange over the block) keeps: Sweep with the accumulator's k-th
// distance as the threshold.
func TopKSweep(data []float64, dim int, q []float64, axis int, order []int32, coord []float64, acc *TopKAcc) (evaluated int) {
	Sweep(len(order), q[axis], func(i int) float64 { return coord[i] }, acc.Threshold, func(lo, hi int) {
		evaluated += hi - lo
		TopKRows(data, dim, q, order[lo:hi], acc)
	})
	return evaluated
}
