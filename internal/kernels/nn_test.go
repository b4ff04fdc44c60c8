package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/points"
)

// naiveNN is the reference: first row in ascending order wins ties.
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

func TestNNAgainstNaive(t *testing.T) {
	rng := points.NewRand(5)
	for _, dim := range []int{1, 2, 3, 7, 9, 12, 17} {
		n := 200 + dim%4 // every n mod 4 remainder past the last full block
		data := make([]float64, n*dim)
		for i := range data {
			data[i] = rng.Float64() * 10
		}
		allRows := make([]int32, n)
		for i := range allRows {
			allRows[i] = int32(i)
		}
		for trial := 0; trial < 50; trial++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.Float64() * 10
			}
			wantI, want2 := naiveNN(data, dim, q, allRows)
			if gotI, got2 := NNRange(data, dim, q, 0, n); gotI != wantI || got2 != want2 {
				t.Fatalf("dim %d: NNRange = (%d, %v), want (%d, %v)", dim, gotI, got2, wantI, want2)
			}
			// A strided subset, still ascending.
			var rows []int32
			for i := trial % 3; i < n; i += 3 {
				rows = append(rows, int32(i))
			}
			wantI, want2 = naiveNN(data, dim, q, rows)
			if gotI, got2 := NNRows(data, dim, q, rows); gotI != wantI || got2 != want2 {
				t.Fatalf("dim %d: NNRows = (%d, %v), want (%d, %v)", dim, gotI, got2, wantI, want2)
			}
		}
	}
}

// Ties break to the lowest row index on both paths.
func TestNNTieRule(t *testing.T) {
	data := []float64{1, 1, 5, 5, 1, 1} // rows 0 and 2 identical
	q := []float64{1, 2}
	if i, _ := NNRange(data, 2, q, 0, 3); i != 0 {
		t.Fatalf("NNRange tie chose row %d, want 0", i)
	}
	// Order must not matter: the index tie-break picks row 0 even when it
	// is visited last.
	if i, _ := NNRows(data, 2, q, []int32{2, 1, 0}); i != 0 {
		t.Fatalf("NNRows tie chose row %d, want 0", i)
	}
}

func TestNNEmpty(t *testing.T) {
	if i, d2 := NNRange(nil, 2, []float64{0, 0}, 0, 0); i != -1 || !math.IsInf(d2, 1) {
		t.Fatalf("empty NNRange = (%d, %v)", i, d2)
	}
	if i, d2 := NNRows(nil, 2, []float64{0, 0}, nil); i != -1 || !math.IsInf(d2, 1) {
		t.Fatalf("empty NNRows = (%d, %v)", i, d2)
	}
}

// TestNNHostileRows scans lattice rows salted with ±Inf, NaN, −0 and
// overflowing coordinates: exactly equal distances are everywhere — across
// the four-row blocks of a strip and across strips — and must resolve to
// the lowest row index on every path, in any visiting order; rows whose
// distance is not finite never win.
func TestNNHostileRows(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, dim := range []int{1, 2, 5, 8, 11} {
		for _, n := range []int{3, 4, 5, nnTile + 1, 2*nnTile + 2, 2*nnTile + 3} {
			data := latticeRows(rng, n, dim)
			asc := make([]int32, n)
			for i := range asc {
				asc[i] = int32(i)
			}
			shuffled := append([]int32(nil), asc...)
			rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			for trial := 0; trial < 20; trial++ {
				q := make([]float64, dim)
				for j := range q {
					q[j] = float64(rng.Intn(5))
				}
				wantI, want2 := naiveNN(data, dim, q, asc)
				if gotI, got2 := NNRange(data, dim, q, 0, n); gotI != wantI || got2 != want2 {
					t.Fatalf("dim %d n %d: NNRange = (%d, %v), want (%d, %v)", dim, n, gotI, got2, wantI, want2)
				}
				if gotI, got2 := NNRows(data, dim, q, shuffled); gotI != wantI || got2 != want2 {
					t.Fatalf("dim %d n %d: shuffled NNRows = (%d, %v), want (%d, %v)", dim, n, gotI, got2, wantI, want2)
				}
				best, best2 := []int32{0}, []float64{0}
				NNBatch(data, dim, q, 0, n, best, best2)
				if int(best[0]) != wantI || best2[0] != want2 {
					t.Fatalf("dim %d n %d: NNBatch = (%d, %v), want (%d, %v)", dim, n, best[0], best2[0], wantI, want2)
				}
			}
		}
	}
}
