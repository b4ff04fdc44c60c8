package lsh

import "repro/internal/par"

// Index is the bucket index of a block of rows under every layout: each
// distinct key interned to a dense bucket ID, and every bucket's rows stored
// as one CSR block. The serving engine probes it; the fleet partitioner
// places its buckets on shards.
type Index struct {
	// RowKeys holds row i's bucket ID under layout j at [i*M+j].
	RowKeys []int32
	// Rows holds every bucket's member rows back to back, each bucket
	// ascending: bucket id's are Rows[Offsets[id]:Offsets[id+1]]. Each row
	// appears M times, once per layout. Nil until Fill.
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
// Rows, in ascending row order, which leaves every bucket ascending without
// a sort or a per-bucket append. The layouts are cut into workers
// contiguous chunks (par.For), each chunk's buckets filled by its own
// goroutine over all the rows: no bucket spans two layouts, so no two
// goroutines share a fill cursor, and Rows does not depend on workers.
func (ix *Index) Fill(workers int) {
	nl, n := ix.nl, len(ix.RowKeys)/ix.nl
	ix.Rows = make([]int32, len(ix.RowKeys))
	next := make([]int, ix.Len()) // each bucket's fill cursor
	copy(next, ix.Offsets)
	par.For(nl, workers, func(_, jlo, jhi int) {
		for r := range n {
			for _, id := range ix.RowKeys[r*nl+jlo : r*nl+jhi] {
				ix.Rows[next[id]] = int32(r)
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

// Lookup returns the bucket ID of key, if any row carries it.
func (ix *Index) Lookup(key []byte) (int32, bool) { return ix.keys.Lookup(key) }

// Key returns the key of bucket id, which the caller must not modify.
func (ix *Index) Key(id int32) []byte { return ix.keys.Key(id) }

// Len returns the number of buckets.
func (ix *Index) Len() int { return ix.keys.Len() }

// Bucket returns bucket id's rows, ascending.
func (ix *Index) Bucket(id int32) []int32 {
	return ix.Rows[ix.Offsets[id]:ix.Offsets[id+1]]
}
