package lsh

import (
	"math"
	"slices"
	"testing"

	"repro/internal/points"
)

// TestBuildIndexOrder: BuildIndex leaves every bucket's ID, size and
// members' keys known and no posting filled, and after Fill every bucket
// lists its rows in the order Fill was given, ascending for a nil order.
func TestBuildIndexOrder(t *testing.T) {
	const n, dim = 400, 3
	rng := points.NewRand(3)
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.NormFloat64() * 5
	}
	l := NewLayouts(dim, 4, 2, 3, 9)
	asc, desc := l.BuildIndex(data, n, 1), l.BuildIndex(data, n, 1)
	if desc.Rows != nil || len(desc.Offsets) != desc.Len()+1 || desc.Offsets[desc.Len()] != n*l.M() {
		t.Fatalf("built with Rows=%v Offsets=%v: want buckets sized, no postings", desc.Rows, desc.Offsets)
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(n - 1 - i)
	}
	asc.Fill(nil, 1)
	desc.Fill(perm, 1)
	if !slices.Equal(indexKeys(desc), indexKeys(asc)) || !slices.Equal(desc.Offsets, asc.Offsets) || !slices.Equal(desc.RowKeys, asc.RowKeys) {
		t.Fatal("keys, row keys or offsets depend on the fill order")
	}
	for id := range asc.Len() {
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

// TestBuildIndexWorkersAgree: the chunked build is one index whatever the
// worker count — bucket IDs in first-seen order over the (row, layout)
// iteration, as interning every row's keys one by one gives them — filled
// by as many workers, in ascending and in reverse order, on blocks smaller
// than the worker count, of one row, of repeated rows, with non-finite
// coordinates, and with a key that opens a late chunk but first appears at
// the end of chunk 0.
func TestBuildIndexWorkersAgree(t *testing.T) {
	const dim = 3
	blobs := func(n int, seed int64) []float64 {
		rng := points.NewRand(seed)
		data := make([]float64, n*dim)
		for i := range data {
			data[i] = float64(20*(i/dim%3)) + rng.NormFloat64()*4
		}
		return data
	}
	dup := blobs(30, 5)
	for range 3 {
		dup = append(dup, dup[:30*dim]...)
	}
	hostile := blobs(40, 6)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN(), math.Inf(1), 1e308} {
		hostile[(3+6*i)*dim+i%dim] = v
	}
	hostile[20*dim], hostile[20*dim+1], hostile[20*dim+2] = math.NaN(), math.Inf(-1), math.Inf(1)
	// Rows 24, 32 and 42 open the last chunk at 2, 3 and 8 workers, and hold
	// the point row 5 — in chunk 0 at every worker count — holds.
	late := blobs(48, 7)
	for _, r := range []int{24, 32, 42} {
		copy(late[r*dim:][:dim], late[5*dim:][:dim])
	}
	cases := []struct {
		name string
		data []float64
	}{
		{"n<workers", blobs(5, 1)},
		{"n=1", blobs(1, 2)},
		{"blobs", blobs(300, 3)},
		{"duplicates", dup},
		{"non-finite", hostile},
		{"late-key", late},
	}
	for _, m := range []int{1, 4, 64} {
		l := NewLayouts(dim, m, 2, 6, int64(m))
		for _, tc := range cases {
			n := len(tc.data) / dim
			// The reference: every row's keys interned one by one.
			var keys []string
			ids := map[string]int32{}
			rowKeys := make([]int32, 0, n*m)
			for i := range n {
				for _, key := range l.Keys(tc.data[i*dim:][:dim]) {
					id, ok := ids[key]
					if !ok {
						id = int32(len(keys))
						keys = append(keys, key)
						ids[key] = id
					}
					rowKeys = append(rowKeys, id)
				}
			}
			reverse := make([]int32, n)
			for i := range reverse {
				reverse[i] = int32(n - 1 - i)
			}
			for _, order := range [][]int32{nil, reverse} {
				want := l.BuildIndex(tc.data, n, 1)
				if !slices.Equal(indexKeys(want), keys) || !slices.Equal(want.RowKeys, rowKeys) {
					t.Fatalf("M=%d %s ordered=%v: one worker's keys or row keys are not first-seen order", m, tc.name, order != nil)
				}
				want.Fill(order, 1)
				for _, workers := range []int{1, 2, 3, 8} {
					got := l.BuildIndex(tc.data, n, workers)
					got.Fill(order, workers)
					if !slices.Equal(indexKeys(got), indexKeys(want)) || !slices.Equal(got.RowKeys, want.RowKeys) ||
						!slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Rows, want.Rows) {
						t.Fatalf("M=%d %s ordered=%v: %d workers built or filled a different index than one", m, tc.name, order != nil, workers)
					}
					for id, key := range indexKeys(got) {
						if back, ok := got.Lookup([]byte(key)); !ok || back != int32(id) {
							t.Fatalf("M=%d %s: %d workers look bucket %d up as %d, %v", m, tc.name, workers, id, back, ok)
						}
					}
				}
			}
		}
	}
}

// indexKeys returns every bucket's key, read through Key, in ID order.
func indexKeys(ix *Index) []string {
	keys := make([]string, ix.Len())
	for id := range keys {
		keys[id] = string(ix.Key(int32(id)))
	}
	return keys
}

// internN returns a table of n distinct keys, for hand-built indexes.
func internN(n int) KeyIDs {
	var k KeyIDs
	for i := range n {
		k.Intern([]byte{byte(i)})
	}
	return k
}

// widestNaive is WidestAxis by its definition: every bucket's squared
// deviations from its own mean, summed per axis.
func widestNaive(ix *Index, data []float64, dim int) []float64 {
	w := make([]float64, dim)
	for id := range ix.Len() {
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
	ix := &Index{keys: internN(2), RowKeys: []int32{0, 0, 0, 1, 1, 1}, Offsets: []int{0, 3, 6}}
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
			ix := NewLayouts(dim, 5, 2, 8, 4).BuildIndex(data, n, 1)
			ix.Fill(nil, 1)
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
		ix := &Index{keys: internN(k)}
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
	ix := &Index{keys: internN(len(centres)), Offsets: []int{0, n / 4, n / 2, 3 * n / 4, n}}
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
	if got := NewLayouts(2, 3, 2, 1, 1).BuildIndex(bad, 2, 1).WidestAxis(bad, 2); got < 0 || got > 1 {
		t.Fatalf("non-finite block: axis %d", got)
	}
}
