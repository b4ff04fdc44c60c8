package kernels

// NNBatch is the multi-query exact NN scan behind the serving engine's
// full-scan fallback: one pass over each row tile serves every query of the
// call, so the model's coordinate block streams through the cache once per
// tile instead of once per query. Per query the rows are still visited in
// ascending order with the same arithmetic as NNRange, so each (best,
// best2) result is bit-identical to a standalone NNRange call.

// nnTile is the row-tile edge of the batched scans. 128 rows of an
// 8-dimensional float64 block are 8 KiB — resident in L1 while the whole
// query batch runs over them.
const nnTile = 128

// batchTiles drives one tiled multi-query scan: rows [lo, hi) are visited
// in nnTile-row tiles, and within each tile every query index [0, nq)
// scans the tile's rows in ascending order via scan(qi, tLo, tHi). Both
// batch kernels — NNBatch and TopKBatch — run on this one loop, so the
// tiling cannot drift between them; per
// query the visit order is identical to the flat [lo, hi) scan, which
// keeps each batched result bit-identical to its single-query kernel.
func batchTiles(lo, hi, nq int, scan func(qi, tLo, tHi int)) {
	for t := lo; t < hi; t += nnTile {
		tHi := min(t+nnTile, hi)
		for qi := 0; qi < nq; qi++ {
			scan(qi, t, tHi)
		}
	}
}

// NNBatch scans rows [lo, hi) of data (rows of length dim) for every query
// in qs (flat, len(best)*dim) and writes the nearest row index and squared
// distance into best/best2 (len = number of queries). Each query's result
// is bit-identical to NNRange(data, dim, q, lo, hi), including (-1, +Inf)
// when no row has a finite distance.
func NNBatch(data []float64, dim int, qs []float64, lo, hi int, best []int32, best2 []float64) {
	nq := len(best)
	for i := 0; i < nq; i++ {
		best[i], best2[i] = -1, inf
	}
	batchTiles(lo, hi, nq, func(qi, tLo, tHi int) {
		b, b2 := nnScanRange(data, dim, qs[qi*dim:(qi+1)*dim], tLo, tHi, int(best[qi]), best2[qi])
		best[qi], best2[qi] = int32(b), b2
	})
}
