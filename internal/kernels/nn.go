package kernels

// Nearest-neighbor scan kernels for the online serving path: given a query
// position and the flat SoA coordinate block of a cluster model, find the
// closest stored row. The serving engine runs its exact full-scan fallback
// through NNBatch (nnbatch.go); its pruned path is Sweep into a k = 1
// TopKAcc (TopKCompact at q8). NNRows is harness-only: the benchmark
// times it over a query's whole LSH candidate union and as the shortlist's
// re-rank (compact.go). NNRange's one non-test caller is ingest's delta
// scan. All share
// the tie rule "lowest row index wins", so a pruned scan that contains the
// true nearest row returns exactly what the exact scan would. NNRows
// enforces the rule with an explicit index comparison on equal distances,
// so callers need not sort the row list.

// NNRange scans rows [lo, hi) of the flat row-major block data (rows of
// length dim) and returns the row index nearest to q plus the squared
// distance. Returns (-1, +Inf) on an empty range.
func NNRange(data []float64, dim int, q []float64, lo, hi int) (int, float64) {
	return nnScanRange(data, dim, q, lo, hi, -1, inf)
}

// nnScanRange extends a running (best, best2) with rows [lo, hi) — the one
// scan loop behind NNRange and NNBatch, so the single- and multi-query
// paths cannot drift. Distances come in blocked strips (dist.go) and are
// observed in ascending row order; a row wins only on a strictly smaller
// distance, preserving the lowest-row-index tie rule across any tiling of
// the range.
func nnScanRange(data []float64, dim int, q []float64, lo, hi, best int, best2 float64) (int, float64) {
	var d2 [nnTile]float64
	for ; lo < hi; lo += nnTile {
		strip := d2[:min(nnTile, hi-lo)]
		sqDistRange(q[:dim], data, lo, strip)
		for x, v := range strip {
			if v < best2 {
				best, best2 = lo+x, v
			}
		}
	}
	return best, best2
}

// NNRows scans only the listed rows (any order, duplicates allowed) and
// returns the nearest row index plus the squared distance; equal distances
// resolve to the lowest row index, matching NNRange's ascending scan.
// Returns (-1, +Inf) when rows is empty.
func NNRows(data []float64, dim int, q []float64, rows []int32) (int, float64) {
	best, best2 := -1, inf
	var d2 [nnTile]float64
	for len(rows) > 0 {
		part := rows[:min(nnTile, len(rows))]
		rows = rows[len(part):]
		sqDistRows(q[:dim], data, part, d2[:len(part)])
		for x, r := range part {
			if v, i := d2[x], int(r); v < best2 || (v == best2 && i < best) {
				best, best2 = i, v
			}
		}
	}
	return best, best2
}
