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
	// Rows holds every bucket's member rows, ascending, back to back:
	// bucket id's are Rows[Offsets[id]:Offsets[id+1]]. Each row appears M
	// times, once per layout.
	Rows    []int32
	Offsets []int

	ids map[string]int32
}

// BuildIndex indexes the n rows of the flat row-major block data. One pass
// hashes every row and interns its keys; a counting pass then drops each
// row into its buckets' slices of the one postings block, which leaves every
// bucket in ascending row order without a sort or a per-bucket append.
// It runs on the calling goroutine only: a compaction rebuilds its engine
// beside live queries and must not take their cores.
func (l *Layouts) BuildIndex(data []float64, n int) *Index {
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
	ix.Rows = make([]int32, n*nl)
	next := sizes // reused as each bucket's fill cursor
	copy(next, ix.Offsets)
	for i := 0; i < n; i++ {
		for _, id := range ix.RowKeys[i*nl:][:nl] {
			ix.Rows[next[id]] = int32(i)
			next[id]++
		}
	}
	return ix
}

// Lookup returns the bucket ID of key, if any row carries it.
func (ix *Index) Lookup(key []byte) (int32, bool) {
	id, ok := ix.ids[string(key)]
	return id, ok
}

// Bucket returns bucket id's rows in ascending order.
func (ix *Index) Bucket(id int32) []int32 {
	return ix.Rows[ix.Offsets[id]:ix.Offsets[id+1]]
}
