package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Tests of the coordinate-ordered top-k scan. The contract: whatever the
// axis, TopKSweep leaves the accumulator exactly as TopKRange over the whole
// block leaves it — same rows, same distances, same (distance, row) tie
// order — and never evaluates a row twice.

// sweepCase runs TopKSweep on every axis of the block and fails unless each
// run equals the flat scan. It returns the evaluated count on axis 0.
func sweepCase(t *testing.T, what string, data []float64, dim int, q []float64, k int) int {
	t.Helper()
	n := len(data) / dim
	flat := NewTopKAcc(k)
	TopKRange(data, dim, q, 0, n, flat)
	want := flat.Append(nil)
	var first int
	acc := NewTopKAcc(k)
	for axis := 0; axis < dim; axis++ {
		order, coord := SweepOrder(data, dim, axis, nil, nil)
		eligible := 0
		for r := 0; r < n; r++ {
			if c := data[r*dim+axis]; !math.IsNaN(c) && !math.IsInf(c, 0) {
				eligible++
			}
		}
		if len(order) != eligible || len(coord) != eligible {
			t.Fatalf("%s axis %d: %d rows ordered, %d coordinates, %d rows finite on the axis", what, axis, len(order), len(coord), eligible)
		}
		for i := range order {
			r := int(order[i])
			if c := data[r*dim+axis]; coord[i] != c || math.IsInf(c, 0) {
				t.Fatalf("%s axis %d: order[%d] = row %d with coordinate %v, coord says %v", what, axis, i, r, c, coord[i])
			}
			if i > 0 && (coord[i-1] > coord[i] || (coord[i-1] == coord[i] && order[i-1] >= order[i])) {
				t.Fatalf("%s axis %d: order not ascending by (coordinate, row) at %d", what, axis, i)
			}
		}
		acc.Reset(k)
		evaluated := TopKSweep(data, dim, q, axis, order, coord, acc)
		if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s dim %d n %d k %d axis %d: TopKSweep = %v, TopKRange = %v", what, dim, n, k, axis, got, want)
		}
		switch qa := q[axis]; {
		case math.IsNaN(qa) || math.IsInf(qa, 0):
			if evaluated != 0 {
				t.Fatalf("%s axis %d: %d rows evaluated for a query at %v", what, axis, evaluated, qa)
			}
		case evaluated > len(order):
			t.Fatalf("%s axis %d: %d rows evaluated of %d", what, axis, evaluated, len(order))
		case k >= n && evaluated != len(order):
			t.Fatalf("%s axis %d: k %d ≥ n %d but %d of %d eligible rows evaluated", what, axis, k, n, evaluated, len(order))
		}
		if axis == 0 {
			first = evaluated
		}
	}
	return first
}

func TestTopKSweepMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sizes := []int{0, 1, 2, 3, 4, 5, nnTile - 1, nnTile, nnTile + 1, 3*nnTile - 1, 3 * nnTile, 3*nnTile + 1}
	for dim := 1; dim <= 9; dim++ {
		for _, n := range sizes {
			blocks := map[string][]float64{
				"random":  randBlock(rng, n, dim, 10), // plants duplicate rows and near ties
				"lattice": latticeRows(rng, n, dim),   // mass distance ties, NaN/±Inf/overflow on and off the axis
			}
			flatAxis := randBlock(rng, n, dim, 10)
			for r := 0; r < n; r++ {
				flatAxis[r*dim] = 2.5 // all rows equal on axis 0
			}
			blocks["equal-on-axis"] = flatAxis
			same := make([]float64, n*dim) // every row the same point: only the row index separates them
			for i := range same {
				same[i] = float64(i % dim)
			}
			blocks["one-point"] = same

			for what, data := range blocks {
				for _, k := range []int{1, 3, max(n, 1), n + 5} {
					inside := randQuery(rng, dim)
					if what == "lattice" || what == "one-point" {
						for j := range inside {
							inside[j] = float64(rng.Intn(5))
						}
					}
					left, right := make([]float64, dim), make([]float64, dim)
					for j := range left {
						left[j], right[j] = -1e3, 1e3
					}
					for _, q := range [][]float64{left, inside, right} {
						sweepCase(t, what, data, dim, q, k)
					}
				}
			}
		}
	}
}

// A query with a non-finite coordinate has no eligible neighbour on any
// axis (every distance is +Inf or NaN); on the other axes the sweep must
// still walk and reject like the flat scan does.
func TestTopKSweepHostileQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, dim := range []int{1, 2, 5} {
		data := latticeRows(rng, 2*nnTile+3, dim)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
			for at := 0; at < dim; at++ {
				q := make([]float64, dim)
				q[at] = bad
				sweepCase(t, "hostile query", data, dim, q, 4)
			}
		}
	}
}

func TestSweepAxis(t *testing.T) {
	nan, pinf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		data []float64
		dim  int
		want int
	}{
		{nil, 3, 0},
		{[]float64{1, 5, 2, 9}, 2, 1},                  // spans 1 and 4
		{[]float64{0, 0, 3, 3}, 2, 0},                  // tie: lowest axis
		{[]float64{0, 0, pinf, 1, nan, 2}, 2, 1},       // non-finite values do not widen an axis
		{[]float64{nan, pinf, nan, -pinf}, 2, 0},       // nothing finite anywhere
		{[]float64{nan, 7, nan, 7}, 2, 1},              // a zero span still beats no span
		{[]float64{-1e308, 0, 1e308, 1}, 2, 0},         // a span that overflows is the widest
		{[]float64{4, 4, 4, 4, 4, 4, 4, 4, 5}, 9, 0},   // one row: no axis has a spread
		{[]float64{1, 2, 3, 1, 2, 4, 1, 0, 3.5}, 3, 1}, // three rows
	} {
		if got := SweepAxis(c.data, c.dim); got != c.want {
			t.Fatalf("SweepAxis(%v, %d) = %d, want %d", c.data, c.dim, got, c.want)
		}
	}
}

// On clustered rows the sweep must actually prune: a query drawn from one of
// eight well-separated clusters evaluates well under a quarter of the rows.
func TestTopKSweepPrunesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const dim, n, k = 4, 4000, 10
	data := make([]float64, n*dim)
	for r := 0; r < n; r++ {
		centre := float64(r%8) * 40
		for j := 0; j < dim; j++ {
			data[r*dim+j] = centre + rng.NormFloat64()
		}
	}
	var total int
	for trial := 0; trial < 50; trial++ {
		q := data[rng.Intn(n)*dim:][:dim]
		total += sweepCase(t, "clusters", data, dim, q, k)
	}
	if total*4 > 50*n {
		t.Fatalf("sweep evaluated %d of %d row visits on a clustered block", total, 50*n)
	}
}

// fuzzValue maps one byte to a coordinate: mostly quarter-integers in
// [-16, 16), so ties on the axis and in distance are common, with the values
// a bound could mishandle at the top codes.
func fuzzValue(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	case 0xfc:
		return 1e200
	case 0xfb:
		return -1e200
	case 0xfa:
		return math.Copysign(0, -1)
	case 0xf9:
		return 1e-200
	}
	return float64(int8(b)) / 4
}

// FuzzTopKSweep decodes bytes into (dim, k, query, rows) and runs the
// differential of sweepCase: the sweep equals the flat scan on every axis,
// evaluates no row twice, and never panics.
func FuzzTopKSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{1, 2, 0, 0, 4, 4, 4, 252, 4, 8, 255, 0, 254, 1, 4, 4, 4, 4})
	f.Add([]byte{2, 0, 250, 253, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 251, 0, 249})
	long := make([]byte, 2+3*(3*nnTile+2))
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		dim, k := 1+int(in[0]%8), 1+int(in[1]%12)
		vals := make([]float64, 0, len(in)-2)
		for _, b := range in[2:] {
			vals = append(vals, fuzzValue(b))
		}
		if len(vals) < dim {
			return
		}
		q, data := vals[:dim], vals[dim:]
		data = data[:len(data)/dim*dim]
		sweepCase(t, "fuzz", data, dim, q, k)
	})
}

// RowOrder must list SweepOrder's rows in SweepOrder's order — (coordinate,
// row) ascending, −0 and +0 equal — then every row SweepOrder leaves out, in
// row order, and report each row's coordinate with +Inf for a non-finite one.
func TestRowOrderMatchesSweepOrder(t *testing.T) {
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
					want, _ := SweepOrder(data, dim, axis, nil, nil)
					order, coord := RowOrder(data, dim, axis)
					if len(order) != n || len(coord) != n {
						t.Fatalf("%s dim %d n %d: %d rows ordered, %d coordinates", what, dim, n, len(order), len(coord))
					}
					if !reflect.DeepEqual(order[:len(want)], want) && len(want) > 0 {
						t.Fatalf("%s dim %d n %d axis %d: finite rows ordered %v, SweepOrder %v", what, dim, n, axis, order[:len(want)], want)
					}
					for i, r := range order {
						c := data[int(r)*dim+axis]
						switch bad := math.IsNaN(c) || math.IsInf(c, 0); {
						case bad != (i >= len(want)):
							t.Fatalf("%s dim %d n %d axis %d: row %d (coordinate %v) at position %d of %d finite", what, dim, n, axis, r, c, i, len(want))
						case bad && (!math.IsInf(coord[r], 1) || i > len(want) && order[i-1] >= r):
							t.Fatalf("%s dim %d n %d axis %d: non-finite row %d has coord %v after row %d", what, dim, n, axis, r, coord[r], order[i-1])
						case !bad && coord[r] != c:
							t.Fatalf("%s dim %d n %d axis %d: coord[%d] = %v, data says %v", what, dim, n, axis, r, coord[r], c)
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
