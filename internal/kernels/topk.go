package kernels

// The one nearest-row scan of the repository: given a query position and a
// flat SoA coordinate block, keep the k nearest rows. Every scan sinks into
// a TopKAcc — serving's tree walks and exact fallback and the ingest delta scan
// at k = 1, the kNN-join at k. The accumulator is a best-first list of at
// most k entries, so a scanned row pays one comparison against the worst
// kept entry in the common reject case, and at k = 1 an accepted one costs
// one more comparison and one store.
//
// The order is (squared distance, lowest row index): when a new row ties
// the current k-th distance, it displaces the kept entry only if its row
// index is lower. A row whose squared distance is not finite (+Inf from
// overflow, NaN from Inf−Inf) is ineligible, so a scan in which no row has
// a finite distance keeps nothing — Nearest then reads (-1, +Inf). The
// result set depends only on which rows were observed, never on observation
// order, and any tiling or chunking of a scan is bit-identical to the flat
// loop.

// nnTile is the row-strip edge of the scans. 128 rows of an 8-dimensional
// float64 block are 8 KiB — resident in L1 while a whole query batch runs
// over them.
const nnTile = 128

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
// reusable across queries via Reset, keeping its storage.
type TopKAcc struct {
	k     int
	bound float64     // a row must tie or beat this squared distance (Cap); +Inf after Reset
	ents  []TopKEntry // best first; ents[k-1] is the worst kept entry once full
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
	a.ents = a.ents[:0]
}

// Cap admits, for the rest of this query, only rows whose squared distance
// ties or beats e — the distance of a row the caller already holds
// elsewhere, so a farther one cannot win. A tie is admitted, since it may
// carry the lower index. Call it after Reset, before any row is observed.
func (a *TopKAcc) Cap(e float64) { a.bound = e }

// Threshold returns the squared distance a new row must beat — or tie with
// a lower row index — to enter the accumulator: the current k-th best
// distance once full, the cap (+Inf without one) before that. Callers hoist
// it as the hot-loop early reject (strict `d2 > Threshold()` skips; ties
// still reach observe for the row-index comparison).
func (a *TopKAcc) Threshold() float64 {
	if len(a.ents) < a.k {
		return a.bound
	}
	return a.ents[a.k-1].D2
}

// Nearest returns the best kept row and its squared distance, or (-1, +Inf)
// when the accumulator holds nothing.
func (a *TopKAcc) Nearest() (int, float64) {
	if len(a.ents) == 0 {
		return -1, inf
	}
	return int(a.ents[0].Row), a.ents[0].D2
}

// observe folds one scanned row into the list. Non-finite distances are
// ineligible (see the file comment above), and so are those past the cap.
func (a *TopKAcc) observe(row int32, d2 float64) {
	if !(d2 < inf) || !(d2 <= a.bound) {
		return
	}
	a.ents = keepTopK(a.ents, a.k, TopKEntry{Row: row, D2: d2})
}

// keepTopK folds e into list — best first under topkWorse, at most k
// entries — and returns the list: a full list drops its worst entry when e
// ranks better, a short one grows by one. Shared by TopKAcc and Near.
func keepTopK(list []TopKEntry, k int, e TopKEntry) []TopKEntry {
	n := len(list)
	if n == k {
		if !topkWorse(list[n-1], e) {
			return list
		}
		n--
	} else {
		list = append(list, e)
	}
	i := n
	for ; i > 0 && topkWorse(list[i-1], e); i-- {
		list[i] = list[i-1]
	}
	list[i] = e
	return list
}

// Append appends the kept entries to dst, ascending by (distance, row), and
// returns the extended slice. The accumulator is left intact.
func (a *TopKAcc) Append(dst []TopKEntry) []TopKEntry { return append(dst, a.ents...) }

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
	lo := r * nr.k
	list := keepTopK(nr.ents[lo:lo+int(nr.cnt[r]):lo+nr.k], nr.k, e)
	if nr.cnt[r] = int32(len(list)); len(list) == nr.k {
		nr.thr[r] = list[nr.k-1].D2
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

// TopKRange scans rows [lo, hi) of the flat row-major block data (rows of
// length dim) into acc, in blocked distance strips (dist.go) observed in
// ascending row order. The caller has Reset acc for this query; scanning a
// range in pieces into one accumulator ends as the flat scan does.
func TopKRange(data []float64, dim int, q []float64, lo, hi int, acc *TopKAcc) {
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

// TopKRows scans only the listed rows into acc. Order does not matter, but
// at k > 1 the rows must be distinct: a duplicated row would occupy two of
// the k slots.
func TopKRows(data []float64, dim int, q []float64, rows []int32, acc *TopKAcc) {
	var d2 [nnTile]float64
	for len(rows) > 0 {
		part := rows[:min(nnTile, len(rows))]
		rows = rows[len(part):]
		observeRows(data, q[:dim], part, d2[:len(part)], acc)
	}
}

// observeRows is TopKRows over the listed rows, with d2 (one slot per row)
// as its distance strip.
func observeRows(data, q []float64, rows []int32, d2 []float64, acc *TopKAcc) {
	sqDistRows(q, data, rows, d2)
	thr := acc.Threshold()
	for x, r := range rows {
		if d2[x] > thr {
			continue
		}
		acc.observe(r, d2[x])
		thr = acc.Threshold()
	}
}

// TopKBatch is the multi-query TopKRange: one pass over each nnTile-row
// tile serves every query in the batch (qs flat, len(accs)*dim), so the
// block streams through the cache once per tile instead of once per query.
// Each accumulator must be Reset by the caller; per query the rows arrive
// in ascending order, so the result is bit-identical to a standalone
// TopKRange call. The serving engine's exact fallback runs it at k = 1.
func TopKBatch(data []float64, dim int, qs []float64, lo, hi int, accs []TopKAcc) {
	for t := lo; t < hi; t += nnTile {
		tHi := min(t+nnTile, hi)
		for qi := range accs {
			TopKRange(data, dim, qs[qi*dim:(qi+1)*dim], t, tHi, &accs[qi])
		}
	}
}
