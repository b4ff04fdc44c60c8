package lsh

import (
	"math"
	"slices"
	"testing"

	"repro/internal/points"
)

// TestBuildIndexOrder: the order callback runs once, with every bucket's ID,
// size and members' keys known and no posting filled yet, and every bucket
// then lists its rows in the order it returned.
func TestBuildIndexOrder(t *testing.T) {
	const n, dim = 400, 3
	rng := points.NewRand(3)
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.NormFloat64() * 5
	}
	l := NewLayouts(dim, 4, 2, 3, 9)
	asc := l.BuildIndex(data, n, nil)
	calls := 0
	desc := l.BuildIndex(data, n, func(ix *Index) []int32 {
		calls++
		if ix.Rows != nil || len(ix.Offsets) != len(ix.Keys)+1 || ix.Offsets[len(ix.Keys)] != n*l.M() ||
			!slices.Equal(ix.RowKeys, asc.RowKeys) {
			t.Fatalf("order called with Rows=%v Offsets=%v: want buckets sized, row keys final, no postings", ix.Rows, ix.Offsets)
		}
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(n - 1 - i)
		}
		return perm
	})
	if calls != 1 || !slices.Equal(desc.Keys, asc.Keys) || !slices.Equal(desc.Offsets, asc.Offsets) {
		t.Fatalf("order called %d times; keys or offsets depend on the order", calls)
	}
	for id := range asc.Keys {
		want := slices.Clone(asc.Bucket(int32(id)))
		if !slices.IsSorted(want) {
			t.Fatalf("bucket %d with a nil order: %v, want ascending", id, want)
		}
		slices.Reverse(want)
		if got := desc.Bucket(int32(id)); !slices.Equal(got, want) {
			t.Fatalf("bucket %d: %v, want %v", id, got, want)
		}
	}
}

// widestNaive is WidestAxis by its definition: every bucket's squared
// deviations from its own mean, summed per axis.
func widestNaive(ix *Index, data []float64, dim int) []float64 {
	w := make([]float64, dim)
	for id := range ix.Keys {
		rows := ix.Bucket(int32(id))
		for a := range w {
			var mean float64
			for _, r := range rows {
				mean += data[int(r)*dim+a]
			}
			mean /= float64(len(rows))
			for _, r := range rows {
				d := data[int(r)*dim+a] - mean
				w[a] += d * d
			}
		}
	}
	return w
}

func TestWidestAxis(t *testing.T) {
	// Two buckets far apart on axis 0 and each wider on axis 1: the block's
	// range is widest on axis 0, its buckets on axis 1.
	ix := &Index{Keys: []string{"a", "b"}, RowKeys: []int32{0, 0, 0, 1, 1, 1}, Offsets: []int{0, 3, 6}}
	data := []float64{0, 0, 1, 10, 2, 20, 100, 0, 101, 10, 102, 20}
	if got := ix.WidestAxis(data, 2); got != 1 {
		t.Fatalf("two separated buckets: axis %d, want 1", got)
	}
	// Ties go to the lowest axis; an empty block has axis 0.
	if got := ix.WidestAxis([]float64{0, 0, 1, 1, 2, 2, 5, 5, 6, 6, 7, 7}, 2); got != 0 {
		t.Fatalf("equal spreads: axis %d, want 0", got)
	}
	if got := (&Index{}).WidestAxis(nil, 3); got != 0 {
		t.Fatalf("empty block: axis %d, want 0", got)
	}

	// Against the definition, on blobs scaled differently per axis and sitting
	// far from the origin (the one-pass form must not cancel the spread away).
	for dim := 1; dim <= 6; dim++ {
		for _, off := range []float64{0, 1e9} {
			const n = 600
			rng := points.NewRand(int64(10*dim) + int64(off))
			data := make([]float64, 0, n*dim)
			for i := 0; i < n; i++ {
				for a := 0; a < dim; a++ {
					data = append(data, off+float64(30*(i%4))+rng.NormFloat64()*float64(1+(a+2)%dim))
				}
			}
			ix := NewLayouts(dim, 5, 2, 8, 4).BuildIndex(data, n, nil)
			w := widestNaive(ix, data, dim)
			want := 0
			for a := range w {
				if w[a] > w[want] {
					want = a
				}
			}
			if got := ix.WidestAxis(data, dim); got != want {
				t.Fatalf("dim %d offset %g: axis %d, the definition gives %d (%v)", dim, off, got, want, w)
			}
		}
	}
}

// TestWidestAxisSampled: on a block large enough to be sampled, whether its
// rows are sorted by component or cycle through them, the sample still sees
// every bucket and picks the axis the components are widest on.
func TestWidestAxisSampled(t *testing.T) {
	const n, dim, k = 5 * widestRows, 3, 5
	sigma := []float64{1, 3, 2}
	for _, sorted := range []bool{true, false} {
		rng := points.NewRand(8)
		ix := &Index{Keys: make([]string, k)}
		data := make([]float64, 0, n*dim)
		for i := 0; i < n; i++ {
			c := i % k
			if sorted {
				c = i * k / n
			}
			ix.RowKeys = append(ix.RowKeys, int32(c))
			for a := 0; a < dim; a++ {
				// Components far apart on axes 0 and 2: a row counted into
				// the wrong bucket would show there.
				data = append(data, float64(1000*c*(1-a%2))+rng.NormFloat64()*sigma[a])
			}
		}
		if got := ix.WidestAxis(data, dim); got != 1 {
			t.Fatalf("sorted=%v: axis %d, want 1", sorted, got)
		}
	}
}

// TestWidestAxisSteady: samples of one distribution get one axis — here a
// mixture, one bucket per component, whose two widest ranges are a near tie
// that each sample's extreme rows break their own way — and hostile rows do
// not move it.
func TestWidestAxisSteady(t *testing.T) {
	const n, dim = 4000, 4
	centres := [][]float64{{0, 0, 0, 0}, {60, 0, 30, 10}, {0, 60, 10, 30}, {60, 60, 20, 20}}
	sigma := []float64{3, 3, 4.5, 3}
	ix := &Index{Keys: make([]string, len(centres)), Offsets: []int{0, n / 4, n / 2, 3 * n / 4, n}}
	for i := 0; i < n; i++ {
		ix.RowKeys = append(ix.RowKeys, int32(i%len(centres)))
	}
	ranges := map[int]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		rng := points.NewRand(seed)
		data := make([]float64, 0, n*dim)
		lo, hi := make([]float64, dim), make([]float64, dim)
		for i := 0; i < n; i++ {
			for a, c := range centres[i%len(centres)] {
				v := c + rng.NormFloat64()*sigma[a]
				data = append(data, v)
				lo[a], hi[a] = min(lo[a], v), max(hi[a], v)
			}
		}
		if got := ix.WidestAxis(data, dim); got != 2 {
			t.Fatalf("seed %d: axis %d, want 2 (the widest components)", seed, got)
		}
		widest := 0
		for a := range lo {
			if hi[a]-lo[a] > hi[widest]-lo[widest] {
				widest = a
			}
		}
		ranges[widest] = true

		// A NaN on the axis itself, infinities beside it, and a finite value
		// whose square overflows: that axis is passed over, not picked.
		data[5*dim+2], data[6*dim+1], data[7*dim+3], data[8*dim] = math.NaN(), math.Inf(1), math.Inf(-1), 1e300
		if got := ix.WidestAxis(data, dim); got != 2 {
			t.Fatalf("seed %d: four hostile coordinates moved the axis from 2 to %d", seed, got)
		}
	}
	if len(ranges) < 2 {
		t.Errorf("the widest range is axis %v on all 12 samples: this mixture no longer shows the flip WidestAxis is there to avoid", ranges)
	}

	// Nothing finite anywhere: any axis is correct, none may panic.
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()}
	if got := NewLayouts(2, 3, 2, 1, 1).BuildIndex(bad, 2, nil).WidestAxis(bad, 2); got < 0 || got > 1 {
		t.Fatalf("non-finite block: axis %d", got)
	}
}
