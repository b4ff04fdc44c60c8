package lsh

// Index is the bucket index of a block of rows under every layout: each
// distinct key interned to a dense bucket ID, and every bucket's rows stored
// as one CSR block. The serving engine probes it; the fleet partitioner
// places its buckets on shards.
type Index struct {
	// Keys maps a bucket ID to its key. IDs are handed out in first-seen
	// order over the (row, layout) iteration, so they — and everything
	// derived from them — are deterministic.
	Keys []string
	// RowKeys holds row i's bucket ID under layout j at [i*M+j].
	RowKeys []int32
	// Rows holds every bucket's member rows back to back, each bucket in
	// the fill order BuildIndex was given: bucket id's are
	// Rows[Offsets[id]:Offsets[id+1]]. Each row appears M times, once per
	// layout.
	Rows    []int32
	Offsets []int

	ids map[string]int32
}

// BuildIndex indexes the n rows of the flat row-major block data. One pass
// hashes every row and interns its keys; a counting pass then drops each
// row into its buckets' slices of the one postings block, taking the rows in
// the order that order returns — a permutation of [0, n); a nil order means
// ascending — which leaves every bucket in that order without a sort or a
// per-bucket append. order is called between the passes with the index
// complete but for Rows, so it may depend on the buckets (the serving engine
// sorts on WidestAxis; the fleet partitioner's estimator wants ascending
// rows). Bucket IDs do not depend on the order. It runs on the calling
// goroutine only: a compaction rebuilds its engine beside live queries and
// must not take their cores.
func (l *Layouts) BuildIndex(data []float64, n int, order func(*Index) []int32) *Index {
	nl := l.M()
	ix := &Index{RowKeys: make([]int32, n*nl), ids: make(map[string]int32)}
	var kb KeyBuf
	var sizes []int
	for i := 0; i < n; i++ {
		l.Hash(&kb, data[i*l.dim:][:l.dim])
		for j := 0; j < nl; j++ {
			key := kb.Key(j)
			id, ok := ix.ids[string(key)]
			if !ok {
				id = int32(len(ix.Keys))
				ix.Keys = append(ix.Keys, string(key))
				ix.ids[ix.Keys[id]] = id
				sizes = append(sizes, 0)
			}
			sizes[id]++
			ix.RowKeys[i*nl+j] = id
		}
	}
	ix.Offsets = make([]int, len(sizes)+1)
	for id, sz := range sizes {
		ix.Offsets[id+1] = ix.Offsets[id] + sz
	}
	var perm []int32
	if order != nil {
		perm = order(ix)
	}
	ix.Rows = make([]int32, n*nl)
	next := sizes // reused as each bucket's fill cursor
	copy(next, ix.Offsets)
	for i := 0; i < n; i++ {
		r := int32(i)
		if perm != nil {
			r = perm[i]
		}
		for _, id := range ix.RowKeys[int(r)*nl:][:nl] {
			ix.Rows[next[id]] = r
			next[id]++
		}
	}
	return ix
}

// WidestAxis returns the coordinate on which the buckets of the indexed block
// data are widest: the one with the largest sum, over every bucket of every
// layout, of squared deviations from the bucket's own mean (the lowest such
// axis on ties). A coordinate sweep of a bucket prunes what lies outside a
// window around the query, so this is the axis that prunes most; and being a
// mean over tens of thousands of rows' postings, it is the same axis for any
// two samples of one distribution — a range or any other extreme-value
// statistic flips between near-tied axes from one sample to the next. It
// reads RowKeys only, and of a large block only runs of widestRun rows spaced
// evenly to about widestRows in all, which keeps it a small part of an index
// build. Non-finite coordinates count as no deviation, and an axis whose
// sums overflow is passed over.
func (ix *Index) WidestAxis(data []float64, dim int) int {
	n := len(data) / dim
	if n == 0 {
		return 0
	}
	nl := len(ix.RowKeys) / n
	stride := widestRun * max(n/widestRows, 1)
	sampled := func(row func(i int, x []float64)) {
		for lo := 0; lo < n; lo += stride {
			for i := lo; i < min(lo+widestRun, n); i++ {
				row(i, data[i*dim:][:dim])
			}
		}
	}
	// Deviations are taken from the per-axis mean, so that a block far from
	// the origin does not cancel its spread away.
	mean, cnt := make([]float64, dim), make([]float64, dim)
	sampled(func(_ int, x []float64) {
		for a, v := range x {
			if v-v == 0 {
				mean[a] += v
				cnt[a]++
			}
		}
	})
	for a := range mean {
		mean[a] /= max(cnt[a], 1)
	}
	// Σ_b Σ_{r∈b} (d_r − d̄_b)² = M·Σ_r d_r² − Σ_b (Σ_{r∈b} d_r)²/|b|.
	sq, d := make([]float64, dim), make([]float64, dim)
	sums, sizes := make([]float64, len(ix.Keys)*dim), make([]float64, len(ix.Keys))
	sampled(func(i int, x []float64) {
		for a, v := range x {
			if v -= mean[a]; v-v != 0 {
				v = 0
			}
			d[a] = v
			sq[a] += v * v * float64(nl)
		}
		for _, id := range ix.RowKeys[i*nl:][:nl] {
			sizes[id]++
			s := sums[int(id)*dim:][:len(d)]
			for a, v := range d {
				s[a] += v
			}
		}
	})
	for id, size := range sizes {
		for a, s := range sums[id*dim:][:dim] {
			sq[a] -= s * s / max(size, 1)
		}
	}
	axis := 0
	for a, w := range sq {
		if w > sq[axis] || sq[axis] != sq[axis] { // NaN: the sums overflowed
			axis = a
		}
	}
	return axis
}

// WidestAxis's sample: runs of widestRun consecutive rows — so that neither a
// block sorted by cluster nor one that cycles through its clusters row by row
// is seen one-sidedly — about widestRows rows in all.
const (
	widestRun  = 64
	widestRows = 1 << 14
)

// Lookup returns the bucket ID of key, if any row carries it.
func (ix *Index) Lookup(key []byte) (int32, bool) {
	id, ok := ix.ids[string(key)]
	return id, ok
}

// Bucket returns bucket id's rows in the index's fill order.
func (ix *Index) Bucket(id int32) []int32 {
	return ix.Rows[ix.Offsets[id]:ix.Offsets[id+1]]
}
