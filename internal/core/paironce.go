package core

import (
	"fmt"
	"math"
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
// 0 … m−1 and skips — as whole blocks — the pairs an earlier layout owns,
// and, on the cutoff ρ job, the owned blocks whose two runs lie d_c apart.

// CtrPairsSkipped counts the co-bucketed pairs an LSH job did not evaluate
// because another reducer's pass covers them: an earlier layout owns them,
// or — on the δ job — neither point's δ̂ needs them, so one of the two never
// reached the bucket (shipRows). dp.distance.computations +
// dp.lsh.pairs.pruned + dp.lsh.pairs.skipped of one LSH job is
// Σ C(|bucket|, 2) over every bucket of every layout.
const CtrPairsSkipped = "dp.lsh.pairs.skipped"

// CtrPairsPruned counts the owned pairs a cutoff ρ reducer did not evaluate
// because their two runs lie at least d_c apart on some axis (apart): no
// such pair is within d_c, so none could count or be listed. Zero on the
// Gaussian ρ job and on the δ job, which never prune.
const CtrPairsPruned = "dp.lsh.pairs.pruned"

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
	box    []float64 // boxRuns' bounding boxes, 2·dim values a run
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
// layout own evaluates among the loaded rows of m, and counts the pairs it
// prunes and those it leaves to earlier layouts. Layout 0 owns every pair of
// its bucket. Later layouts see their rows as runs of equal earlier-layout
// buckets: pairs inside a run share layout 0's bucket, two runs that agree
// in any earlier layout are skipped as a whole, and two that differ in all
// of them are owned here — adjacent owned runs merge into one block —
// unless they lie apart at reach2, the squared distance at and beyond which
// the caller's walk can do nothing with a pair. reach2 = +Inf prunes
// nothing.
func (po *pairOnce) owned(m *points.Matrix, own int, reach2 float64) (blocks []kernels.Block, pruned, skipped int64) {
	n := m.N()
	blocks = po.blocks[:0]
	if own == 0 {
		po.blocks = append(blocks, kernels.Triangle(0, n))
		return po.blocks, 0, 0
	}
	segs := append(po.segs[:0], 0)
	for r := 1; r < n; r++ {
		if !po.samePrefix(r-1, r, own) {
			segs = append(segs, r)
		}
	}
	segs = append(segs, n)
	po.segs = segs
	prune := reach2 < math.Inf(1)
	if prune {
		po.boxRuns(m, segs)
	}
	box := func(g int) []float64 { return po.box[2*g*m.Dim() : 2*(g+1)*m.Dim()] }
	skipped = kernels.Triangle(0, n).Pairs()
	for g := 0; g+2 < len(segs); g++ {
		first := len(blocks)
		for h := g + 1; h+1 < len(segs); h++ {
			if po.sharesEarlier(segs[g], segs[h], own) {
				continue
			}
			if prune && apart(box(g), box(h), reach2) {
				pruned += int64(segs[g+1]-segs[g]) * int64(segs[h+1]-segs[h])
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
	return blocks, pruned, skipped - pruned
}

// boxRuns fills po.box with the bounding box of every run of m — rows
// [segs[g], segs[g+1]) — run g's lowest coordinate on each axis at
// box[2g·dim:], its highest right after. The built-in min and max carry a
// NaN coordinate into both bounds of its axis, where apart never reads a gap.
func (po *pairOnce) boxRuns(m *points.Matrix, segs []int) {
	dim, data := m.Dim(), m.Data()
	size := 2 * dim * (len(segs) - 1)
	box := slices.Grow(po.box[:0], size)[:size]
	for g := 0; g+1 < len(segs); g++ {
		lo, hi := box[2*g*dim:(2*g+1)*dim], box[(2*g+1)*dim:(2*g+2)*dim]
		copy(lo, data[segs[g]*dim:(segs[g]+1)*dim])
		copy(hi, lo)
		for r := segs[g] + 1; r < segs[g+1]; r++ {
			for t, v := range data[r*dim : (r+1)*dim] {
				lo[t], hi[t] = min(lo[t], v), max(hi[t], v)
			}
		}
	}
	po.box = box
}

// apart reports whether two runs' boxes (boxRuns) lie at least reach apart on
// some axis t: gap > 0 and gap·gap ≥ reach2, gap being one box's lowest
// coordinate minus the other's highest. Every pair across the two runs is
// then at a squared distance ≥ reach2 or NaN as the kernels compute it, so
// no cutoff walk at Dc2 = reach2 counts or lists it: for rows a and b on
// either side the exact |a[t] − b[t]| is at least the exact gap, rounding is
// monotone, so the kernel's term (a[t] − b[t])² is at least gap·gap as
// computed here, and its sum of non-negative terms in ascending t (dist.go)
// never falls below one of them — the argument of the coordinate sweep
// (kernels/sweep.go), with no slack. A NaN or ∞ − ∞ bound gives a NaN gap,
// which is never > 0.
func apart(g, h []float64, reach2 float64) bool {
	dim := len(g) / 2
	for t := 0; t < dim; t++ {
		gap := max(h[t]-g[dim+t], g[t]-h[dim+t])
		if gap > 0 && gap*gap >= reach2 {
			return true
		}
	}
	return false
}

// countPairs publishes one reduce call's pair counters: the distances it
// evaluated, the owned pairs it pruned and the pairs it left to others.
func countPairs(ctx *mapreduce.TaskContext, evaluated, pruned, skipped int64) {
	ctx.Counters.Add(mapreduce.CtrDistanceComputations, evaluated)
	ctx.Counters.Add(CtrPairsPruned, pruned)
	ctx.Counters.Add(CtrPairsSkipped, skipped)
}
