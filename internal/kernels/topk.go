package kernels

// Top-k nearest-neighbor scan kernels for the kNN-join subsystem: given a
// query position and a flat SoA coordinate block, maintain the k nearest
// rows instead of the single nearest. The accumulator is a fixed-size
// binary max-heap ordered by (squared distance, row index), so the root is
// always the worst kept entry and a scanned row pays one comparison against
// it in the common reject case.
//
// The tie rule extends the NN kernels' "lowest row index wins": when a new
// row ties the current k-th distance, it displaces the kept entry only if
// its row index is lower, and Append returns entries sorted ascending by
// (distance, row). A row whose squared distance is not finite (+Inf from
// overflow, NaN from Inf−Inf) is ineligible, matching NNRange's "(-1, +Inf)
// when no row has a finite distance" contract — so the result set depends
// only on which rows were observed, never on observation order, and any
// tiling or chunking of a scan is bit-identical to the flat loop.

import "slices"

// TopKEntry is one kept neighbor: a matrix row index and its exact squared
// distance to the query.
type TopKEntry struct {
	Row int32
	D2  float64
}

// topkWorse reports whether entry a ranks strictly worse than entry b under
// the scan order: larger squared distance, higher row index on ties.
func topkWorse(a, b TopKEntry) bool {
	return a.D2 > b.D2 || (a.D2 == b.D2 && a.Row > b.Row)
}

// TopKAcc accumulates the k nearest rows observed so far. The zero value is
// unusable; call Reset (or NewTopKAcc) with k ≥ 1 first. One accumulator is
// reusable across queries via Reset, keeping its heap storage.
type TopKAcc struct {
	k     int
	bound float64     // a row must tie or beat this squared distance (Cap); +Inf after Reset
	h     []TopKEntry // max-heap under topkWorse; h[0] is the worst kept entry
}

// NewTopKAcc returns an accumulator holding up to k rows.
func NewTopKAcc(k int) *TopKAcc {
	a := &TopKAcc{}
	a.Reset(k)
	return a
}

// Reset empties the accumulator for a new query keeping storage; k must be
// at least 1.
func (a *TopKAcc) Reset(k int) {
	if k < 1 {
		panic("kernels: TopKAcc needs k >= 1")
	}
	a.k = k
	a.bound = inf
	a.h = a.h[:0]
}

// Cap admits, for the rest of this query, only rows whose squared distance
// ties or beats e — the distance of a row the caller already holds
// elsewhere, so a farther one cannot win. A tie is admitted, since it may
// carry the lower index. Call it after Reset, before any row is observed.
func (a *TopKAcc) Cap(e float64) { a.bound = e }

// Len returns the number of rows currently held (≤ k; fewer than k when the
// scan saw fewer than k rows with finite distances).
func (a *TopKAcc) Len() int { return len(a.h) }

// Threshold returns the squared distance a new row must beat — or tie with
// a lower row index — to enter the accumulator: the current k-th best
// distance once full, the cap (+Inf without one) before that. Callers hoist
// it as the hot-loop early reject (strict `d2 > Threshold()` skips; ties
// still reach observe for the row-index comparison).
func (a *TopKAcc) Threshold() float64 {
	if len(a.h) < a.k {
		return a.bound
	}
	return a.h[0].D2
}

// observe folds one scanned row into the heap. Non-finite distances are
// ineligible (see the package comment above), and so are those past the cap.
func (a *TopKAcc) observe(row int32, d2 float64) {
	if !(d2 < inf) || !(d2 <= a.bound) {
		return
	}
	if len(a.h) < a.k {
		a.h = append(a.h, TopKEntry{Row: row, D2: d2})
		a.siftUp(len(a.h) - 1)
		return
	}
	r := a.h[0]
	if d2 < r.D2 || (d2 == r.D2 && row < r.Row) {
		a.h[0] = TopKEntry{Row: row, D2: d2}
		a.siftDown(0)
	}
}

func (a *TopKAcc) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !topkWorse(a.h[i], a.h[p]) {
			return
		}
		a.h[i], a.h[p] = a.h[p], a.h[i]
		i = p
	}
}

func (a *TopKAcc) siftDown(i int) {
	n := len(a.h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && topkWorse(a.h[r], a.h[c]) {
			c = r
		}
		if !topkWorse(a.h[c], a.h[i]) {
			return
		}
		a.h[i], a.h[c] = a.h[c], a.h[i]
		i = c
	}
}

// Append appends the kept entries to dst sorted ascending by (distance,
// row) and returns the extended slice. The accumulator is left intact.
func (a *TopKAcc) Append(dst []TopKEntry) []TopKEntry {
	off := len(dst)
	dst = append(dst, a.h...)
	slices.SortFunc(dst[off:], func(a, b TopKEntry) int {
		switch {
		case topkWorse(a, b):
			return 1
		case topkWorse(b, a):
			return -1
		}
		return 0
	})
	return dst
}

// Near keeps, for each of n rows, its k nearest partners closer than a
// bound among the pairs a ρ walk evaluates (Credit.Near) — the lists
// pair-once LSH-DDP certifies δ̂ from (DESIGN.md "δ̂ from the ρ pass"). An
// entry's Row is the partner's point ID, not a matrix row, so the kept set
// and its order under topkWorse depend only on which pairs were offered,
// never on the offer order, and lists from different reducers merge by
// offering one into another. A squared distance not below the bound — a
// non-finite one included — is ineligible.
type Near struct {
	k     int
	bound float64
	ents  []TopKEntry // row r's list at [r·k, r·k+cnt[r]), best first
	cnt   []int32
	thr   []float64 // the worst kept D2 once row r's list is full, else bound
}

// Reset empties the lists of n rows, keeping storage, to admit partners at
// squared distances below bound; k must be at least 1.
func (nr *Near) Reset(n, k int, bound float64) {
	if k < 1 {
		panic("kernels: Near needs k >= 1")
	}
	nr.k, nr.bound = k, bound
	if cap(nr.cnt) < n || cap(nr.ents) < n*k {
		nr.ents = make([]TopKEntry, n*k)
		nr.cnt = make([]int32, n)
		nr.thr = make([]float64, n)
	}
	nr.ents, nr.cnt, nr.thr = nr.ents[:n*k], nr.cnt[:n], nr.thr[:n]
	clear(nr.cnt)
	for r := range nr.thr {
		nr.thr[r] = bound
	}
}

// List returns row r's entries, best first. It aliases the storage.
func (nr *Near) List(r int) []TopKEntry { return nr.ents[r*nr.k : r*nr.k+int(nr.cnt[r])] }

// Offer folds one partner into row r's list.
func (nr *Near) Offer(r int, e TopKEntry) {
	if !(e.D2 < nr.bound) {
		return
	}
	list := nr.ents[r*nr.k : (r+1)*nr.k]
	n := int(nr.cnt[r])
	if n == nr.k {
		if !topkWorse(list[n-1], e) {
			return
		}
		n--
	}
	i := n
	for ; i > 0 && topkWorse(list[i-1], e); i-- {
		list[i] = list[i-1]
	}
	list[i] = e
	nr.cnt[r] = int32(n + 1)
	if n+1 == nr.k {
		nr.thr[r] = list[n].D2
	}
}

// strip offers row a and each row jLo+x the other at distance d2[x]. Only
// distances below the bound are looked at, gathered without a branch, as
// the cutoff kernel gathers its hits; of those, a partner at a full list's
// threshold may still win on ID, so only one strictly above it is turned
// away without a call.
func (nr *Near) strip(a int, ids []int32, jLo int, d2 []float64) {
	var buf [tile]int32
	thr := nr.thr[jLo : jLo+len(d2)]
	thrA, idA := nr.thr[a], ids[a]
	for _, x := range compactBelow(d2, nr.bound, buf[:]) {
		v := d2[x]
		if v <= thr[x] {
			nr.Offer(jLo+int(x), TopKEntry{Row: idA, D2: v})
		}
		if v <= thrA {
			nr.Offer(a, TopKEntry{Row: ids[jLo+int(x)], D2: v})
			thrA = nr.thr[a]
		}
	}
}

// topkScanRange extends acc with rows [lo, hi) of the flat row-major block
// data, on the same blocked distance strips as the NN kernels so distances
// are bit-identical across both.
func topkScanRange(data []float64, dim int, q []float64, lo, hi int, acc *TopKAcc) {
	thr := acc.Threshold()
	var d2 [nnTile]float64
	for ; lo < hi; lo += nnTile {
		strip := d2[:min(nnTile, hi-lo)]
		sqDistRange(q[:dim], data, lo, strip)
		for x, v := range strip {
			if v > thr {
				continue
			}
			acc.observe(int32(lo+x), v)
			thr = acc.Threshold()
		}
	}
}

// TopKRange scans rows [lo, hi) of data (rows of length dim) into acc,
// which the caller has Reset for this query.
func TopKRange(data []float64, dim int, q []float64, lo, hi int, acc *TopKAcc) {
	topkScanRange(data, dim, q, lo, hi, acc)
}

// TopKRows scans only the listed rows into acc. Order does not matter, but
// unlike NNRows the rows must be distinct: a duplicated row would occupy
// two of the k slots.
func TopKRows(data []float64, dim int, q []float64, rows []int32, acc *TopKAcc) {
	thr := acc.Threshold()
	var d2 [nnTile]float64
	for len(rows) > 0 {
		part := rows[:min(nnTile, len(rows))]
		rows = rows[len(part):]
		sqDistRows(q[:dim], data, part, d2[:len(part)])
		for x, r := range part {
			if d2[x] > thr {
				continue
			}
			acc.observe(r, d2[x])
			thr = acc.Threshold()
		}
	}
}

// TopKBatch is the multi-query variant of TopKRange: one pass over each row
// tile serves every query in the batch (qs flat, len(accs)*dim), exactly
// like NNBatch. Each accumulator must be Reset by the caller; per query the
// rows arrive in ascending order and the result is bit-identical to a
// standalone TopKRange call. The kNN-join reducers scan per query with
// TopKLeaves instead; this full-block batch is what the benchmark
// harness's top-k probe times.
func TopKBatch(data []float64, dim int, qs []float64, lo, hi int, accs []TopKAcc) {
	batchTiles(lo, hi, len(accs), func(qi, tLo, tHi int) {
		topkScanRange(data, dim, qs[qi*dim:(qi+1)*dim], tLo, tHi, &accs[qi])
	})
}
