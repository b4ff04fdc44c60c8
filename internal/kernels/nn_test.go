package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// naiveNN is the reference oracle of the nearest-row scan: the scalar loop
// over the listed rows in the given order, in which a row wins only on a
// strictly smaller squared distance — so over ascending rows, ties go to the
// lowest row index — and a row whose distance is not finite never wins.
func naiveNN(data []float64, dim int, q []float64, rows []int32) (int, float64) {
	best, best2 := -1, math.Inf(1)
	for _, r := range rows {
		i := int(r)
		var d2 float64
		for j := 0; j < dim; j++ {
			d := q[j] - data[i*dim+j]
			d2 += d * d
		}
		if d2 < best2 {
			best, best2 = i, d2
		}
	}
	return best, best2
}

// TestTopKMatchesNNAtK1: the harness's NNRows and NNBatch are the k = 1
// scan. NNRows over a shuffled list that repeats rows, and NNBatch over a
// sub-range for a batch of queries, equal the k = 1 TopKRange and the
// scalar oracle.
func TestTopKMatchesNNAtK1(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dim := range []int{2, 5} {
		n, nq := 150, 9
		data := randBlock(rng, n, dim, 3) // plants duplicate rows
		rows := append(allRows(n), allRows(n/2)...)
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		qs := make([]float64, nq*dim)
		for i := range qs {
			qs[i] = rng.NormFloat64() * 3
		}
		best, best2 := make([]int32, nq), make([]float64, nq)
		for _, lo := range []int{0, 7, nnTile + 1} {
			NNBatch(data, dim, qs, lo, n, best, best2)
			for qi := 0; qi < nq; qi++ {
				q := qs[qi*dim : (qi+1)*dim]
				acc := NewTopKAcc(1)
				TopKRange(data, dim, q, lo, n, acc)
				wi, w2 := acc.Nearest()
				if oi, o2 := naiveNN(data, dim, q, allRows(n)[lo:]); oi != wi || o2 != w2 {
					t.Fatalf("dim %d lo %d: top-1 (%d, %v), oracle (%d, %v)", dim, lo, wi, w2, oi, o2)
				}
				if int(best[qi]) != wi || best2[qi] != w2 {
					t.Fatalf("dim %d lo %d q %d: NNBatch (%d, %v), want (%d, %v)", dim, lo, qi, best[qi], best2[qi], wi, w2)
				}
				if lo != 0 {
					continue
				}
				if gi, g2 := NNRows(data, dim, q, rows); gi != wi || g2 != w2 {
					t.Fatalf("dim %d: NNRows with repeats (%d, %v), want (%d, %v)", dim, gi, g2, wi, w2)
				}
			}
		}
	}
}
