package kernels

// The coordinate-ordered scan of the serving engine: the same exact answer
// as a flat scan over all the rows, from a fraction of the distance
// evaluations. Sweep is the walk; the engine runs it into a k = 1 TopKAcc at
// every precision, through TopKCompact's filter at q8. (The kNN-join's
// reducers scan a box tree instead, leaves.go, whose bound is this one
// summed over every axis.)
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
// lower index still displaces the kept one. The threshold is the TopKAcc's
// k-th exact distance (its cap before it holds k rows); the compact filter
// never changes what the accumulator holds after a strip, so a compact
// sweep reads the same thresholds and visits the same strips as a float64
// one.
//
// The matrix stays in its own row order — the sweep goes through a
// permutation — so the lowest-row-index rule means what it means for a flat
// scan, and the result does not depend on the order rows are fed in.

import (
	"math"
	"sort"

	"repro/internal/par"
)

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }

// RowOrder returns every row of data whose axis coordinate is finite, sorted
// ascending by (axis coordinate, row index), then, in row order, the rows
// whose axis coordinate is NaN or ±Inf; and coord[row], each row's axis coordinate with
// +Inf standing for a non-finite one. It is a stable byte-wise LSD radix
// sort on the order-preserving bit pattern, skipping bytes all keys share —
// O(n) — over workers contiguous row chunks (par.For): each pass counts
// every chunk's digits on its own goroutine, hands each (digit, chunk) its
// run of the output in digit-then-chunk order, and scatters every chunk in
// its own row order, so the sort stays stable and its output does not
// depend on workers.
func RowOrder(data []float64, dim, axis, workers int) (order []int32, coord []float64) {
	n := len(data) / dim
	coord = make([]float64, n)
	keys, order := make([]uint64, n), make([]int32, n)
	k := par.Chunks(n, workers)
	par.For(n, k, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			c, key := data[r*dim+axis], ^uint64(0) // above every finite key
			if finite(c) {
				// c+0 folds −0 into +0: equal coordinates must share a key.
				if key = math.Float64bits(c + 0); key>>63 != 0 {
					key = ^key
				} else {
					key |= 1 << 63
				}
			} else {
				c = inf
			}
			coord[r], keys[r], order[r] = c, key, int32(r)
		}
	})
	if n == 0 {
		return order, coord
	}
	keys2, order2 := make([]uint64, n), make([]int32, n)
	hist := make([][256]int, k) // chunk c's digit counts, then its write cursors
	for b := 0; b < 64; b += 8 {
		par.For(n, k, func(c, lo, hi int) {
			h := &hist[c]
			*h = [256]int{}
			for _, key := range keys[lo:hi] {
				h[byte(key>>b)]++
			}
		})
		shared := 0 // keys whose digit is keys[0]'s
		for c := range hist {
			shared += hist[c][byte(keys[0]>>b)]
		}
		if shared == n {
			continue
		}
		pos := 0
		for d := range 256 {
			for c := range hist {
				hist[c][d], pos = pos, pos+hist[c][d]
			}
		}
		par.For(n, k, func(c, lo, hi int) {
			h := &hist[c]
			for i, key := range keys[lo:hi] {
				d := byte(key >> b)
				keys2[h[d]], order2[h[d]] = key, order[lo+i]
				h[d]++
			}
		})
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
