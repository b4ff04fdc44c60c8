package lsh

import "repro/internal/par"

// Index is the bucket index of a block of rows under every layout: each
// distinct key interned to a dense bucket ID, and every bucket's rows stored
// as one CSR block. The serving engine probes it; the fleet partitioner
// places its buckets on shards.
type Index struct {
	// RowKeys holds row i's bucket ID under layout j at [i*M+j].
	RowKeys []int32
	// Rows holds every bucket's member rows back to back, each bucket in
	// the order Fill was given: bucket id's are
	// Rows[Offsets[id]:Offsets[id+1]]. Each row appears M times, once per
	// layout. Nil until Fill.
	Rows    []int32
	Offsets []int

	// keys hands out the bucket IDs in first-seen order over the (row,
	// layout) iteration, so they — and everything derived from them — are
	// deterministic.
	keys KeyIDs
	nl   int // the layout count M
}

// BuildIndex indexes the n rows of the flat row-major block data — the keys,
// RowKeys and Offsets; Rows is Fill's. The rows are cut into workers
// contiguous chunks (par.For), each hashed and its keys interned into its
// own KeyIDs and its own slice of RowKeys. Chunk 0's table becomes the
// index's; a merge in chunk order then interns each later chunk's keys into
// it — its unseen keys taking the next IDs in its first-seen order, which is
// first-seen order over the whole (row, layout) iteration — and renumbers
// RowKeys in place, so the index does not depend on workers.
func (l *Layouts) BuildIndex(data []float64, n, workers int) *Index {
	nl := l.M()
	ix := &Index{RowKeys: make([]int32, n*nl), nl: nl}
	chunks := make([]indexChunk, par.Chunks(n, workers))
	par.For(n, len(chunks), func(c, lo, hi int) {
		chunks[c].intern(l, data, ix.RowKeys, lo, hi)
	})
	ix.keys = chunks[0].keys
	sizes := chunks[0].sizes
	for c := 1; c < len(chunks); c++ {
		ch := &chunks[c]
		ch.remap = make([]int32, ch.keys.Len())
		for local := range ch.remap {
			id := ix.keys.Intern(ch.keys.Key(int32(local)))
			if int(id) == len(sizes) {
				sizes = append(sizes, 0)
			}
			ch.remap[local] = id
			sizes[id] += ch.sizes[local]
		}
	}
	par.For(n, len(chunks), func(c, _, _ int) {
		if remap := chunks[c].remap; remap != nil {
			for i, local := range ix.RowKeys[chunks[c].lo:chunks[c].hi] {
				ix.RowKeys[chunks[c].lo+i] = remap[local]
			}
		}
	})
	ix.Offsets = make([]int, len(sizes)+1)
	for id, sz := range sizes {
		ix.Offsets[id+1] = ix.Offsets[id] + int(sz)
	}
	return ix
}

// Fill drops every row into its buckets' slices of the one postings block,
// Rows, taking the rows in the order order lists — a permutation of the
// indexed rows; nil means ascending — which leaves every bucket in that
// order without a sort or a per-bucket append. The order may depend on the
// index (the serving engine sorts on WidestAxis); bucket IDs do not. The
// layouts are cut into workers contiguous chunks (par.For), each chunk's
// buckets filled by its own goroutine over the whole order: no bucket spans
// two layouts, so no two goroutines share a fill cursor, and Rows does not
// depend on workers.
func (ix *Index) Fill(order []int32, workers int) {
	nl, n := ix.nl, len(ix.RowKeys)/ix.nl
	ix.Rows = make([]int32, len(ix.RowKeys))
	next := make([]int, ix.Len()) // each bucket's fill cursor
	copy(next, ix.Offsets)
	par.For(nl, workers, func(_, jlo, jhi int) {
		for i := range n {
			r := int32(i)
			if order != nil {
				r = order[i]
			}
			for _, id := range ix.RowKeys[int(r)*nl+jlo : int(r)*nl+jhi] {
				ix.Rows[next[id]] = r
				next[id]++
			}
		}
	})
}

// indexChunk is one chunk of BuildIndex's rows: the RowKeys entries
// [lo, hi) it owns, its keys interned to chunk-local IDs in first-seen
// order with each one's posting count, and, for every chunk but the first,
// the merge's local-to-global renumbering.
type indexChunk struct {
	lo, hi int
	keys   KeyIDs
	sizes  []int32
	remap  []int32
}

// intern hashes rows [lo, hi) of data and writes their chunk-local bucket
// IDs into their RowKeys entries.
func (ch *indexChunk) intern(l *Layouts, data []float64, rowKeys []int32, lo, hi int) {
	nl := l.M()
	ch.lo, ch.hi = lo*nl, hi*nl
	var kb KeyBuf
	for i := lo; i < hi; i++ {
		l.Hash(&kb, data[i*l.dim:][:l.dim])
		for j := 0; j < nl; j++ {
			id := ch.keys.Intern(kb.Key(j))
			if int(id) == len(ch.sizes) {
				ch.sizes = append(ch.sizes, 0)
			}
			ch.sizes[id]++
			rowKeys[i*nl+j] = id
		}
	}
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
	sums, sizes := make([]float64, ix.Len()*dim), make([]float64, ix.Len())
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
func (ix *Index) Lookup(key []byte) (int32, bool) { return ix.keys.Lookup(key) }

// Key returns the key of bucket id, which the caller must not modify.
func (ix *Index) Key(id int32) []byte { return ix.keys.Key(id) }

// Len returns the number of buckets.
func (ix *Index) Len() int { return ix.keys.Len() }

// Bucket returns bucket id's rows in the order Fill was given.
func (ix *Index) Bucket(id int32) []int32 {
	return ix.Rows[ix.Offsets[id]:ix.Offsets[id+1]]
}
