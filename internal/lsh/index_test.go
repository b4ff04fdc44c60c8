package lsh

import (
	"math"
	"slices"
	"testing"

	"repro/internal/points"
)

// TestBuildIndexOrder: BuildIndex gives every row, under every layout, the
// bucket ID its key looks up to.
func TestBuildIndexOrder(t *testing.T) {
	const n, dim = 400, 3
	rng := points.NewRand(3)
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.NormFloat64() * 5
	}
	l := NewLayouts(dim, 4, 2, 3, 9)
	ix := l.BuildIndex(data, n, 1)
	if len(ix.RowKeys) != n*l.M() {
		t.Fatalf("%d row keys, want %d", len(ix.RowKeys), n*l.M())
	}
	for i := range n {
		for j, key := range l.Keys(data[i*dim:][:dim]) {
			if id, ok := ix.Lookup([]byte(key)); !ok || ix.RowKeys[i*l.M()+j] != id {
				t.Fatalf("row %d layout %d: row key %d, its key looks up as %d, %v", i, j, ix.RowKeys[i*l.M()+j], id, ok)
			}
		}
	}
}

// TestBuildIndexWorkersAgree: the chunked build is one index whatever the
// worker count — bucket IDs in first-seen order over the (row, layout)
// iteration, as interning every row's keys one by one gives them — on
// blocks smaller
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
			want := l.BuildIndex(tc.data, n, 1)
			if !slices.Equal(indexKeys(want), keys) || !slices.Equal(want.RowKeys, rowKeys) {
				t.Fatalf("M=%d %s: one worker's keys or row keys are not first-seen order", m, tc.name)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got := l.BuildIndex(tc.data, n, workers)
				if !slices.Equal(indexKeys(got), indexKeys(want)) || !slices.Equal(got.RowKeys, want.RowKeys) {
					t.Fatalf("M=%d %s: %d workers built a different index than one", m, tc.name, workers)
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

// indexKeys returns every bucket's key, read through Key, in ID order.
func indexKeys(ix *Index) []string {
	keys := make([]string, ix.Len())
	for id := range keys {
		keys[id] = string(ix.Key(int32(id)))
	}
	return keys
}
