package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// Pair ownership (DESIGN.md "Pair ownership"). A bucket is roughly a cluster
// in every layout, so two nearby points share a bucket in layout after
// layout; ρ̂, δ̂ and the halo border depend only on the set of distinct
// co-bucketed pairs, so each pair is evaluated once, by its owner: the
// reducer of the lowest layout in which the two points share a bucket. The
// reducer of layout m re-derives every row's keys from its coordinates
// (nothing extra is shuffled), orders its rows by their buckets in layouts
// 0 … m−1 and skips — as whole blocks — the pairs an earlier layout owns.

// CtrPairsSkipped counts the co-bucketed pairs an LSH job did not evaluate:
// because an earlier layout owns them, or — on the δ job — because neither
// point's δ̂ needs them, so one of the two never reached the bucket
// (shipRows). dp.distance.computations + dp.lsh.pairs.skipped of one LSH job
// is Σ C(|bucket|, 2) over every bucket of every layout, so their ratio to
// the former is the factor both save.
const CtrPairsSkipped = "dp.lsh.pairs.skipped"

// pairOnce is the scratch of one pair-once reduce call: the rows' bucket
// signatures and the blocks the reducer owns. Pooled, so a reduce task
// hashes with one KeyBuf and interns into one map whatever its group count.
type pairOnce struct {
	kb     lsh.KeyBuf
	ids    map[string]int32 // bucket key → id, in first-seen order
	n      int              // rows signed
	sig    []int32          // sig[l·n+r]: row r's bucket under layout l
	spare  []int32
	order  []int32 // sorted position → arrival row
	next   []int32 // load's counting-sort scratch
	start  []int32
	words  []uint64
	segs   []int
	blocks []kernels.Block
	credit kernels.Credit
	near   kernels.Near
	acc    kernels.DeltaAcc
	// certified[r]: the δ-job record that arrived r-th is a certified
	// point's, shipped as a candidate only (decodeShipped).
	certified []bool
}

var pairOncePool = sync.Pool{New: func() any { return &pairOnce{ids: map[string]int32{}} }}

// reducerLayout parses the layout index out of an LSH reduce key.
func reducerLayout(key string, l *lsh.Layouts) (int, error) {
	own, _, err := lsh.DecodeKey(key)
	if err != nil {
		return 0, err
	}
	if own >= l.M() {
		return 0, fmt.Errorf("core: reduce key %s names layout %d of %d", lsh.KeyString(key), own, l.M())
	}
	return own, nil
}

// sign fills po.sig for the rows of m, visited in the given order: layouts
// [0, width), bar the reducer's own, which every row shares. Two rows carry
// the same id under a layout exactly when they share its bucket; ids are
// handed out as buckets are first seen.
func (po *pairOnce) sign(l *lsh.Layouts, m *points.Matrix, own, width int, rows []int32) {
	n := m.N()
	po.n = n
	if cap(po.sig) < n*width {
		po.sig = make([]int32, n*width)
	}
	po.sig = po.sig[:n*width]
	clear(po.sig)
	clear(po.ids)
	if width == 0 || (width == 1 && own == 0) {
		return // no layout but the reducer's own: nothing to hash for
	}
	for _, r := range rows {
		l.Hash(&po.kb, m.Row(int(r)))
		for j := 0; j < width; j++ {
			if j == own {
				continue
			}
			key := po.kb.Key(j)
			id, ok := po.ids[string(key)]
			if !ok {
				id = int32(len(po.ids))
				po.ids[string(key)] = id
			}
			po.sig[j*n+int(r)] = id
		}
	}
}

// load decodes a reduce group, signs layouts [0, width) and returns the rows
// in (buckets under layouts 0 … own−1, ID) order, po.sig following them. IDs
// are unique within a bucket and rows are signed in ID order, so bucket ids,
// the row order — and with it every kernel's visit order, Gaussian sum and δ
// tie — are the same for any arrival order of values. The caller returns
// the matrix to the pool.
func (po *pairOnce) load(l *lsh.Layouts, own, width int, values [][]byte,
	decode func(*points.Matrix, [][]byte) error) (*points.Matrix, error) {
	raw := points.GetMatrix()
	defer points.PutMatrix(raw)
	if err := decode(raw, values); err != nil {
		return nil, err
	}
	// By ID first — one sort of packed (ID, row) words — then one stable
	// counting pass per earlier layout, last layout first: bucket ids are
	// small, so the lexicographic order costs O(own·n).
	n := raw.N()
	words := po.words[:0]
	for r, id := range raw.IDs() {
		words = append(words, uint64(uint32(id)^1<<31)<<32|uint64(r))
	}
	slices.Sort(words)
	po.words = words
	order, next := po.order[:0], po.next[:0]
	for _, word := range words {
		order = append(order, int32(uint32(word)))
	}
	next = append(next, order...)
	po.sign(l, raw, own, width, order)
	for j := own - 1; j >= 0; j-- {
		col := po.sig[j*n : (j+1)*n]
		start := append(po.start[:0], make([]int32, len(po.ids)+1)...)
		for _, id := range col {
			start[id+1]++
		}
		for k := 1; k < len(start); k++ {
			start[k] += start[k-1]
		}
		for _, r := range order {
			next[start[col[r]]] = r
			start[col[r]]++
		}
		order, next, po.start = next, order, start
	}
	po.order, po.next = order, next
	m := points.GetMatrix()
	m.Gather(raw, order)
	po.spare = po.spare[:0]
	for j := 0; j < width; j++ {
		col := po.sig[j*n : (j+1)*n]
		for _, r := range order {
			po.spare = append(po.spare, col[r])
		}
	}
	po.sig, po.spare = po.spare, po.sig
	return m, nil
}

// decodeShipped is load's decoder for δ-job records: the RhoPoints into m,
// and which of them are certified into po.certified, in arrival order.
func (po *pairOnce) decodeShipped(m *points.Matrix, values [][]byte) error {
	m.Reset()
	po.certified = po.certified[:0]
	for _, v := range values {
		rest, err := m.AppendRhoPoint(v)
		if err != nil {
			return err
		}
		certified, _, err := points.ShipMask(rest)
		if err != nil {
			return err
		}
		po.certified = append(po.certified, certified)
	}
	return nil
}

// sharesEarlier reports whether rows a and b share a bucket in some layout
// before own — whether an earlier layout owns the pair.
func (po *pairOnce) sharesEarlier(a, b, own int) bool {
	for j := 0; j < own; j++ {
		if col := po.sig[j*po.n:]; col[a] == col[b] {
			return true
		}
	}
	return false
}

// samePrefix reports whether rows a and b share the bucket of every layout
// before own.
func (po *pairOnce) samePrefix(a, b, own int) bool {
	for j := 0; j < own; j++ {
		if col := po.sig[j*po.n:]; col[a] != col[b] {
			return false
		}
	}
	return true
}

// owned lists, in ascending row order, the blocks of pairs the reducer of
// layout own evaluates among its n loaded rows, and counts the pairs it
// leaves to earlier layouts. Layout 0 owns every pair of its bucket. Later
// layouts see their rows as runs of equal earlier-layout buckets: pairs
// inside a run share layout 0's bucket, two runs that agree in any earlier
// layout are skipped as a whole, and two that differ in all of them are
// owned here — adjacent owned runs merge into one block.
func (po *pairOnce) owned(n, own int) (blocks []kernels.Block, skipped int64) {
	blocks = po.blocks[:0]
	if own == 0 {
		po.blocks = append(blocks, kernels.Triangle(0, n))
		return po.blocks, 0
	}
	segs := append(po.segs[:0], 0)
	for r := 1; r < n; r++ {
		if !po.samePrefix(r-1, r, own) {
			segs = append(segs, r)
		}
	}
	segs = append(segs, n)
	po.segs = segs
	skipped = kernels.Triangle(0, n).Pairs()
	for g := 0; g+2 < len(segs); g++ {
		first := len(blocks)
		for h := g + 1; h+1 < len(segs); h++ {
			if po.sharesEarlier(segs[g], segs[h], own) {
				continue
			}
			if last := len(blocks) - 1; last >= first && blocks[last].BHi == segs[h] {
				blocks[last].BHi = segs[h+1]
			} else {
				blocks = append(blocks, kernels.Cross(segs[g], segs[g+1], segs[h], segs[h+1]))
			}
		}
		for _, b := range blocks[first:] {
			skipped -= b.Pairs()
		}
	}
	po.blocks = blocks
	return blocks, skipped
}

// countPairs publishes one reduce call's pair counters: the distances it
// evaluated and the pairs it left to earlier layouts.
func countPairs(ctx *mapreduce.TaskContext, evaluated, skipped int64) {
	ctx.Counters.Add(mapreduce.CtrDistanceComputations, evaluated)
	ctx.Counters.Add(CtrPairsSkipped, skipped)
}
