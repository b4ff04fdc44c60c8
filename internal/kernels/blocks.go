package kernels

import (
	"sync"

	"repro/internal/points"
)

// Block is one piece of a reducer group's pair grid: every pair (a, b) with
// a in rows [ALo, AHi) and b in rows [BLo, BHi), two disjoint row ranges —
// or, when Diag is set, every unordered pair within [ALo, AHi) (BLo and BHi
// then repeat ALo and AHi). Every kernel of this package walks its pairs as
// blocks, and the pair-once LSH reducers hand theirs over as a list: the
// pairs a reducer owns are not one rectangle.
type Block struct {
	ALo, AHi, BLo, BHi int
	Diag               bool
}

// Triangle is the block of every unordered pair within rows [lo, hi).
func Triangle(lo, hi int) Block { return Block{lo, hi, lo, hi, true} }

// Cross is the block of every pair across two disjoint row ranges.
func Cross(aLo, aHi, bLo, bHi int) Block { return Block{aLo, aHi, bLo, bHi, false} }

// Pairs is the number of pairs — distance evaluations — in b.
func (b Block) Pairs() int64 {
	na := int64(b.AHi - b.ALo)
	if na <= 0 {
		return 0
	}
	if b.Diag {
		return na * (na - 1) / 2
	}
	return na * int64(max(b.BHi-b.BLo, 0))
}

// blockPairs and tileRows total a block list: its pairs, and the tile rows
// forTiles deals out.
func blockPairs(blocks []Block) (pairs int64) {
	for _, b := range blocks {
		pairs += b.Pairs()
	}
	return pairs
}

func tileRows(blocks []Block) (rows int) {
	for _, b := range blocks {
		if b.Pairs() > 0 {
			rows += (b.AHi - b.ALo + tile - 1) / tile
		}
	}
	return rows
}

// forTiles cuts blocks into tile pairs and calls f on each, in block order
// and, inside a block, row-major: per tile row of the a side the diagonal
// tile first (Diag blocks), then the b side left to right. For any row x
// the rows it is paired with therefore arrive in ascending order as long as
// the blocks themselves are listed that way — the visit order of the naive
// i<j loop, which every bit-identity claim of this package rests on.
//
// Worker wi of w takes every w-th tile row, counted across the whole list
// (wi = 0, w = 1 is the serial walk). Triangle rows shrink toward the
// bottom and a reducer's owned blocks are many and small, so striding
// balances both.
func forTiles(blocks []Block, wi, w int, f func(aLo, aHi, bLo, bHi int, diag bool)) {
	row := 0
	for _, b := range blocks {
		if b.Pairs() == 0 {
			continue
		}
		for ta := b.ALo; ta < b.AHi; ta += tile {
			mine := row%w == wi
			row++
			if !mine {
				continue
			}
			taHi := min(ta+tile, b.AHi)
			bLo := b.BLo
			if b.Diag {
				f(ta, taHi, ta, taHi, true)
				bLo = taHi
			}
			for tb := bLo; tb < b.BHi; tb += tile {
				f(ta, taHi, tb, min(tb+tile, b.BHi), false)
			}
		}
	}
}

// Credit is the ρ accumulator of a pair-once LSH reducer (DESIGN.md "Pair
// ownership"). The reducer of layout Own evaluates only pairs whose two
// rows share its bucket and no earlier layout's, but such a pair counts
// toward the local density of every later layout whose bucket the two also
// share; Sig says which. With n rows, cell [l·n+r] of Counts (cutoff kernel)
// or Sums (Gaussian) is row r's density under layout l from the pairs seen
// so far; cells of layouts before Own stay zero. One column per layout, so
// that crediting a strip of neighbours walks each layout's column once.
type Credit struct {
	Layouts int
	Own     int
	// Sig[l·n+r] identifies row r's bucket under layout l: equal for two
	// rows exactly when they share it. Only layouts after Own are read.
	Sig    []int32
	Counts []int32
	Sums   []float64
}

// Reset sizes the accumulator of k's kind to n rows and zeroes it.
func (c *Credit) Reset(n int, k Kernel) {
	cells := n * c.Layouts
	if k.Gaussian {
		c.Counts = nil
		if cap(c.Sums) < cells {
			c.Sums = make([]float64, cells)
		}
		c.Sums = c.Sums[:cells]
		clear(c.Sums)
		return
	}
	c.Sums = nil
	if cap(c.Counts) < cells {
		c.Counts = make([]int32, cells)
	}
	c.Counts = c.Counts[:cells]
	clear(c.Counts)
}

// Share returns row r's density under layout l from the pairs credited so
// far.
func (c *Credit) Share(r, l int) float64 {
	cell := l*(len(c.Sig)/c.Layouts) + r
	if c.Sums != nil {
		return c.Sums[cell]
	}
	return float64(c.Counts[cell])
}

// add folds a worker's private accumulator into c.
func (c *Credit) add(part *Credit) {
	for i, v := range part.Counts {
		c.Counts[i] += v
	}
	for i, v := range part.Sums {
		c.Sums[i] += v
	}
}

// RhoBlocks adds the density contribution of every pair in blocks to cr
// and returns the number of distance evaluations. Groups of at least
// p.Threshold rows deal their tile rows to a worker pool, each worker
// crediting a private accumulator; the merge is exact for the cutoff kernel
// (integer counts) and, for Gaussian sums, deterministic at a fixed worker
// count.
func RhoBlocks(m *points.Matrix, blocks []Block, k Kernel, cr *Credit, p Parallel) int64 {
	scan := creditScan{d64: m.Data(), dim: m.Dim(), k: k, cr: cr}
	w := 1
	if p.Enabled(m.N()) {
		w = p.workers(tileRows(blocks))
	}
	if w <= 1 {
		forTiles(blocks, 0, 1, scan.tile)
		return blockPairs(blocks)
	}
	parts := make([]Credit, w)
	var wg sync.WaitGroup
	for wi := range parts {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			part := &parts[wi]
			*part = Credit{Layouts: cr.Layouts, Own: cr.Own, Sig: cr.Sig}
			part.Reset(m.N(), k)
			mine := scan
			mine.cr = part
			forTiles(blocks, wi, w, mine.tile)
		}(wi)
	}
	wg.Wait()
	for wi := range parts {
		cr.add(&parts[wi])
	}
	return blockPairs(blocks)
}

// RhoBlocks32 is the compact-scan counterpart of RhoBlocks (serial): c must
// mirror m. Cutoff counts are bit-identical — a pair is credited either
// provably from its compact distance or after an exact re-check — and
// Gaussian weights come from the promoted compact distance, as in
// RhoAccumulate32. Returns the pair count and the number of re-checks.
func RhoBlocks32(m *points.Matrix, c *points.Matrix32, blocks []Block, k Kernel, cr *Credit) (pairs, rechecks int64) {
	scan := creditScan{d64: m.Data(), d32: c.Data(), dim: m.Dim(), k: k, cr: cr}
	if !k.Gaussian {
		bnd := F32Bounds(scan.dim, c.MaxAbs())
		scan.cutLo, scan.cutHi = bnd.LtThresh(k.Dc2), bnd.GeThresh(k.Dc2)
	}
	forTiles(blocks, 0, 1, scan.tile)
	return blockPairs(blocks), scan.rechecks
}

// creditScan carries the per-call state of a crediting ρ scan, over the
// float64 rows or (d32 set) their float32 mirror.
type creditScan struct {
	d64          []float64
	d32          []float32
	dim          int
	k            Kernel
	cutLo, cutHi float64 // compact cutoff band, as in rho32Ctx
	cr           *Credit
	rechecks     int64
}

// tile credits one tile pair. Each a row's distances are one blocked strip;
// the cutoff kernel compacts the strip's neighbours into a hit list without
// a data-dependent branch (the test goes either way about as often as not)
// and only the hits pay for the per-layout signature compare.
func (s *creditScan) tile(aLo, aHi, bLo, bHi int, diag bool) {
	var d2 [tile]float64
	var d32 [tile]float32
	var hits [tile]int32
	dim, dc2 := s.dim, s.k.Dc2
	near := dc2 // a strip value below it proves a neighbour
	if s.d32 != nil {
		near = s.cutLo
	}
	for a := aLo; a < aHi; a++ {
		jLo := bLo
		if diag {
			jLo = a + 1
		}
		strip := d2[:bHi-jLo]
		if s.d32 == nil {
			sqDistRange(s.d64[a*dim:(a+1)*dim], s.d64, jLo, strip)
		} else {
			narrow := d32[:len(strip)]
			sqDistRange(s.d32[a*dim:(a+1)*dim], s.d32, jLo, narrow)
			for x, v := range narrow {
				strip[x] = float64(v)
			}
		}
		if s.k.Gaussian {
			for x, v := range strip {
				if !isFinite64(v) && s.d32 != nil {
					v = s.exact(a, jLo+x)
				}
				if w := gaussWeight(v, dc2); w != 0 {
					s.creditWeight(a, jLo+x, w)
				}
			}
			continue
		}
		n := 0
		for x, v := range strip {
			hits[n] = int32(x)
			if v < near {
				n++
			}
		}
		if s.d32 != nil {
			// The undecided band (and every non-finite compact distance)
			// is rare and settled exactly.
			for x, v := range strip {
				if !(v < s.cutLo) && !(v > s.cutHi) && s.exact(a, jLo+x) < dc2 {
					hits[n] = int32(x)
					n++
				}
			}
		}
		s.creditHits(a, jLo, hits[:n])
	}
}

// exact re-checks one pair in float64.
func (s *creditScan) exact(i, j int) float64 {
	s.rechecks++
	return sqDistFlat(s.d64[i*s.dim:], s.d64[j*s.dim:], s.dim)
}

// creditHits counts row a and each of its neighbours jLo+hits[·] toward one
// another under the reducer's own layout and every later layout whose
// bucket the two share. Layout by layout, so that the inner loop reads one
// signature column against a constant and touches each neighbour's counter
// once: no chain of dependent updates on row a's counters.
func (s *creditScan) creditHits(a, jLo int, hits []int32) {
	n := len(s.cr.Sig) / s.cr.Layouts
	for l := s.cr.Own; l < s.cr.Layouts; l++ {
		cnt := s.cr.Counts[l*n : (l+1)*n]
		cntB := cnt[jLo:]
		if l == s.cr.Own {
			cnt[a] += int32(len(hits))
			for _, x := range hits {
				cntB[x]++
			}
			continue
		}
		sig := s.cr.Sig[l*n : (l+1)*n]
		sigA, sigB := sig[a], sig[jLo:]
		var shared int32
		for _, x := range hits {
			var same int32
			if sigB[x] == sigA {
				same = 1
			}
			cntB[x] += same
			shared += same
		}
		cnt[a] += shared
	}
}

// creditWeight is creditHits for one pair of Gaussian weight w.
func (s *creditScan) creditWeight(a, b int, w float64) {
	n, own := len(s.cr.Sig)/s.cr.Layouts, s.cr.Own
	sig, sum := s.cr.Sig, s.cr.Sums
	sum[own*n+a] += w
	sum[own*n+b] += w
	for l := own + 1; l < s.cr.Layouts; l++ {
		if sig[l*n+a] == sig[l*n+b] {
			sum[l*n+a] += w
			sum[l*n+b] += w
		}
	}
}

// DeltaBlocks evaluates every pair in blocks under the density total order
// (see DeltaArgmin), ranking m's rows once for the whole list, and returns
// the number of distance evaluations. Groups of at least p.Threshold rows
// deal their tile rows to a worker pool; the merge reproduces the serial
// scan bit for bit (see deltaBlocks).
func DeltaBlocks(m *points.Matrix, blocks []Block, acc *DeltaAcc, p Parallel) int64 {
	if blockPairs(blocks) == 0 {
		return 0
	}
	acc.rankRows(m, 0, m.N(), 0, 0)
	w := 1
	if p.Enabled(m.N()) {
		w = p.workers(tileRows(blocks))
	}
	return deltaBlocks(m, blocks, acc, w)
}

// deltaBlocks folds blocks into acc, whose rows are already ranked, on w
// workers. Each worker tracks (best², candidate row) privately and the
// merge takes the lexicographic minimum per row. Every pair was evaluated by
// exactly one worker, so the partial candidate sets partition the serial
// candidate sequence, and because a row's candidates arrive in ascending
// row order (forTiles) that minimum is the serial first-wins winner — also
// against state acc carries in from earlier calls, whose candidate rows all
// precede these.
func deltaBlocks(m *points.Matrix, blocks []Block, acc *DeltaAcc, w int) int64 {
	if w <= 1 {
		forTiles(blocks, 0, 1, func(aLo, aHi, bLo, bHi int, diag bool) {
			deltaTile(m, aLo, aHi, bLo, bHi, diag, acc)
		})
		return blockPairs(blocks)
	}
	n, withMax := len(acc.Best2), acc.Max2 != nil
	parts := make([]*DeltaAcc, w)
	var wg sync.WaitGroup
	for wi := range parts {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			part := NewDeltaAcc(n, withMax)
			part.rank = acc.rank // read-only from here on
			parts[wi] = part
			forTiles(blocks, wi, w, func(aLo, aHi, bLo, bHi int, diag bool) {
				deltaTile(m, aLo, aHi, bLo, bHi, diag, part)
			})
		}(wi)
	}
	wg.Wait()
	for _, part := range parts {
		for x := 0; x < n; x++ {
			if withMax && part.Max2[x] > acc.Max2[x] {
				acc.Max2[x] = part.Max2[x]
			}
			if part.Up[x] < 0 {
				continue
			}
			if part.Best2[x] < acc.Best2[x] ||
				(part.Best2[x] == acc.Best2[x] && (acc.Up[x] < 0 || part.Up[x] < acc.Up[x])) {
				acc.Best2[x] = part.Best2[x]
				acc.Up[x] = part.Up[x]
			}
		}
	}
	return blockPairs(blocks)
}

// DeltaBlocks32 is the compact-scan counterpart of DeltaBlocks (serial): c
// must mirror m and band must be Reset against acc with this group's
// bounds. Returns the pair count and the number of exact re-checks.
func DeltaBlocks32(m *points.Matrix, c *points.Matrix32, blocks []Block, acc *DeltaAcc, band *DeltaBand) (pairs, rechecks int64) {
	if blockPairs(blocks) == 0 {
		return 0, 0
	}
	acc.rankRows(m, 0, m.N(), 0, 0)
	ctx := delta32Ctx{m: m, c: c, acc: acc, band: band}
	forTiles(blocks, 0, 1, ctx.tilePairs)
	return blockPairs(blocks), ctx.rechecks
}
