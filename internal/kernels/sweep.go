package kernels

// The coordinate-ordered top-k scan of the kNN-join's bucket reducers: the
// same exact answer as TopKRange over the whole block, from a fraction of
// the distance evaluations.
//
// One coordinate difference is a lower bound on the distance, and it holds
// in floating point with no slack: sqDist and every lane of sqDist4 sum the
// non-negative terms (q[t]−x[t])² in ascending t, and rounding is monotone,
// so once the term of coordinate `axis` is in, the running sum — and the
// final d² — is never below that term as computed. A row whose axis term
// alone strictly exceeds the accumulator's threshold therefore cannot enter
// it, and with the rows sorted on that axis neither can any row beyond it
// on the same side. The threshold only falls, so a side closed once stays
// closed. Ties (term == threshold) keep walking, because a tied row with a
// lower index still displaces the kept one.
//
// The matrix stays in its own row order — the sweep goes through a
// permutation — so TopKAcc's lowest-row-index rule means what it means for
// a flat scan, and the result does not depend on the order rows are fed in.

import (
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

// TopKSweep scans the rows listed in order — SweepOrder's output for this
// data and axis, with coord their axis coordinates — into acc, which the
// caller has Reset for this query, and returns how many distances it
// evaluated. The kept set is exactly what TopKRows over all of order (or
// TopKRange over the block) keeps.
//
// It starts at the query's position on the axis and feeds TopKRows strips
// of at most nnTile rows, each time from the side whose next row is nearer
// on the axis. Before a strip is evaluated, rows whose squared axis gap
// strictly exceeds acc.Threshold() are trimmed off its far end and the side
// is closed. While the accumulator is not full the threshold is +Inf and
// nothing closes. A query whose axis coordinate is not finite has no
// eligible neighbor and evaluates nothing.
func TopKSweep(data []float64, dim int, q []float64, axis int, order []int32, coord []float64, acc *TopKAcc) (evaluated int) {
	qa := q[axis]
	if !finite(qa) {
		return 0
	}
	// The kernel's own term for this axis, operand order included.
	gap2 := func(i int) float64 {
		d := qa - coord[i]
		return d * d
	}
	// Rows [0, l) lie left of the query and are taken from l downward; rows
	// [r, n) lie at or right of it and are taken from r upward.
	n := len(order)
	r, _ := slices.BinarySearch(coord, qa)
	l := r
	for l > 0 || r < n {
		thr := acc.Threshold()
		if l > 0 && (r == n || gap2(l-1) <= gap2(r)) {
			lo := max(0, l-nnTile)
			// gap2 falls as i rises on this side: keep the rows from the
			// first one inside the threshold.
			keep := lo + sort.Search(l-lo, func(i int) bool { return !(gap2(lo+i) > thr) })
			evaluated += l - keep
			TopKRows(data, dim, q, order[keep:l], acc)
			if l = lo; keep > lo {
				l = 0
			}
		} else {
			hi := min(n, r+nnTile)
			keep := r + sort.Search(hi-r, func(i int) bool { return gap2(r+i) > thr })
			evaluated += keep - r
			TopKRows(data, dim, q, order[r:keep], acc)
			if r = hi; keep < hi {
				r = n
			}
		}
	}
	return evaluated
}
