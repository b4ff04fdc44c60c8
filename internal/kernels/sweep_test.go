package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// RowOrder must list the rows whose coordinate is finite sorted by
// (coordinate, row) — −0 and +0 equal — then every other row in row order,
// and report each row's coordinate, bit for bit, with +Inf for a non-finite
// one, at one row chunk and at several. The reference is a comparison sort
// of the finite rows.
func TestRowOrderSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for dim := 1; dim <= 4; dim++ {
		for _, n := range []int{0, 1, 2, 17, 300, 5000} {
			blocks := map[string][]float64{
				"random":  randBlock(rng, n, dim, 1e3),
				"hostile": hostileRows(rng, n, dim),
				"lattice": latticeRows(rng, n, dim),
			}
			zeros := make([]float64, n*dim) // ±0 only: one key, row order
			for i := range zeros {
				zeros[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
			blocks["signed zeros"] = zeros
			for what, data := range blocks {
				for axis := 0; axis < dim; axis++ {
					var want, rest []int32
					for r := 0; r < n; r++ {
						if finite(data[r*dim+axis]) {
							want = append(want, int32(r))
						} else {
							rest = append(rest, int32(r))
						}
					}
					sort.SliceStable(want, func(i, j int) bool { return data[int(want[i])*dim+axis] < data[int(want[j])*dim+axis] })
					want = append(want, rest...)
					for _, workers := range []int{1, 2, 3, 8} {
						order, coord := RowOrder(data, dim, axis, workers)
						if len(order) != n || len(coord) != n {
							t.Fatalf("%s dim %d n %d: %d rows ordered, %d coordinates", what, dim, n, len(order), len(coord))
						}
						if n > 0 && !reflect.DeepEqual(order, want) {
							t.Fatalf("%s dim %d n %d axis %d workers %d: RowOrder %v, sorted %v", what, dim, n, axis, workers, order, want)
						}
						for r := range coord {
							c := data[r*dim+axis]
							if finite(c) && math.Float64bits(coord[r]) != math.Float64bits(c) || !finite(c) && !math.IsInf(coord[r], 1) {
								t.Fatalf("%s dim %d n %d axis %d workers %d: coord[%d] = %v, data says %v", what, dim, n, axis, workers, r, coord[r], c)
							}
						}
					}
				}
			}
		}
	}
}

// Sweep hands out strips of at most nnTile postings inside [0, n) and, under
// a constant threshold, exactly the postings whose squared axis gap does not
// exceed it, each once (all of them at +Inf); a non-finite query evaluates
// nothing.
func TestSweepStripsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, n := range []int{0, 1, 5, nnTile, 3*nnTile + 7} {
		coord := make([]float64, n)
		for i := range coord {
			coord[i] = math.Round(rng.NormFloat64() * 4)
		}
		sort.Float64s(coord)
		for _, qa := range []float64{-100, -1, 0, 0.5, 3, 100, math.NaN(), math.Inf(-1)} {
			for _, limit := range []float64{math.Inf(1), 9, 0} {
				seen := make([]int, n)
				Sweep(n, qa, func(i int) float64 { return coord[i] }, func() float64 { return limit }, func(lo, hi int) {
					if lo < 0 || hi > n || hi < lo || hi-lo > nnTile {
						t.Fatalf("n %d qa %v: strip [%d, %d)", n, qa, lo, hi)
					}
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					d := qa - coord[i]
					if want := finite(qa) && d*d <= limit; c > 1 || (c == 1) != want {
						t.Fatalf("n %d qa %v threshold %v: posting %d at %v evaluated %d times", n, qa, limit, i, coord[i], c)
					}
				}
			}
		}
	}
}
