package kernels

// NNRows and NNBatch are the k = 1 TopKRows and TopKBatch, read back
// through TopKAcc.Nearest, under the names the benchmark harness calls. No
// program path calls them.

// NNRows returns the nearest of the listed rows (any order, duplicates
// allowed) and its squared distance, (-1, +Inf) when no listed row has a
// finite distance. Harness-only; deleted with ROADMAP item 1(a).
func NNRows(data []float64, dim int, q []float64, rows []int32) (int, float64) {
	acc := NewTopKAcc(1)
	TopKRows(data, dim, q, rows, acc)
	return acc.Nearest()
}

// NNBatch writes, for every query in qs (flat, len(best)*dim), the nearest
// row of [lo, hi) and its squared distance into best / best2, (-1, +Inf)
// when no row has a finite distance. Harness-only; deleted with ROADMAP
// item 1(a).
func NNBatch(data []float64, dim int, qs []float64, lo, hi int, best []int32, best2 []float64) {
	accs := make([]TopKAcc, len(best))
	for i := range accs {
		accs[i].Reset(1)
	}
	TopKBatch(data, dim, qs, lo, hi, accs)
	for i := range accs {
		b, b2 := accs[i].Nearest()
		best[i], best2[i] = int32(b), b2
	}
}
