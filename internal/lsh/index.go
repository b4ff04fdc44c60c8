package lsh

import "repro/internal/par"

// Index is the bucket index of a block of rows under every layout: each
// distinct key interned to a dense bucket ID, and every row's bucket under
// every layout. It holds no per-bucket member lists: a consumer that wants
// the rows grouped by bucket groups RowKeys itself. The serving engine
// filters on it; the fleet partitioner places its buckets on shards.
type Index struct {
	// RowKeys holds row i's bucket ID under layout j at [i*M+j].
	RowKeys []int32

	// keys hands out the bucket IDs in first-seen order over the (row,
	// layout) iteration, so they — and everything derived from them — are
	// deterministic.
	keys KeyIDs
}

// BuildIndex indexes the n rows of the flat row-major block data. The rows
// are cut into workers contiguous chunks (par.For), each hashed and its keys
// interned into its own KeyIDs and its own slice of RowKeys. Chunk 0's table
// becomes the index's; a merge in chunk order then interns each later
// chunk's keys into it — its unseen keys taking the next IDs in its
// first-seen order, which is first-seen order over the whole (row, layout)
// iteration — and renumbers RowKeys in place, so the index does not depend
// on workers.
func (l *Layouts) BuildIndex(data []float64, n, workers int) *Index {
	ix := &Index{RowKeys: make([]int32, n*l.M())}
	chunks := make([]indexChunk, par.Chunks(n, workers))
	par.For(n, len(chunks), func(c, lo, hi int) {
		chunks[c].intern(l, data, ix.RowKeys, lo, hi)
	})
	ix.keys = chunks[0].keys
	for c := 1; c < len(chunks); c++ {
		ch := &chunks[c]
		ch.remap = make([]int32, ch.keys.Len())
		for local := range ch.remap {
			ch.remap[local] = ix.keys.Intern(ch.keys.Key(int32(local)))
		}
	}
	par.For(n, len(chunks), func(c, _, _ int) {
		if remap := chunks[c].remap; remap != nil {
			for i, local := range ix.RowKeys[chunks[c].lo:chunks[c].hi] {
				ix.RowKeys[chunks[c].lo+i] = remap[local]
			}
		}
	})
	return ix
}

// indexChunk is one chunk of BuildIndex's rows: the RowKeys entries
// [lo, hi) it owns, its keys interned to chunk-local IDs in first-seen
// order, and, for every chunk but the first, the merge's local-to-global
// renumbering.
type indexChunk struct {
	lo, hi int
	keys   KeyIDs
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
			rowKeys[i*nl+j] = ch.keys.Intern(kb.Key(j))
		}
	}
}

// Lookup returns the bucket ID of key, if any row carries it.
func (ix *Index) Lookup(key []byte) (int32, bool) { return ix.keys.Lookup(key) }

// Key returns the key of bucket id, which the caller must not modify.
func (ix *Index) Key(id int32) []byte { return ix.keys.Key(id) }

// Len returns the number of buckets.
func (ix *Index) Len() int { return ix.keys.Len() }
