package kernels

import "repro/internal/points"

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

// blockPairs totals the pairs of a block list.
func blockPairs(blocks []Block) (pairs int64) {
	for _, b := range blocks {
		pairs += b.Pairs()
	}
	return pairs
}

// forTiles cuts blocks into tile pairs and calls f on each, in block order
// and, inside a block, row-major: per tile row of the a side the diagonal
// tile first (Diag blocks), then the b side left to right. For any row x
// the rows it is paired with therefore arrive in ascending order as long as
// the blocks themselves are listed that way — the visit order of the naive
// i<j loop, which every bit-identity claim of this package rests on.
func forTiles(blocks []Block, f func(aLo, aHi, bLo, bHi int, diag bool)) {
	for _, b := range blocks {
		if b.Pairs() == 0 {
			continue
		}
		for ta := b.ALo; ta < b.AHi; ta += tile {
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

// Credit is the ρ accumulator: one column of n counters per layout, cell
// [l·n+r] being row r's neighbour count under layout l from the pairs seen
// so far.
//
// The pair-once LSH reducers (DESIGN.md "Pair ownership") are the M-column
// case. The reducer of layout Own evaluates only pairs whose two rows share
// its bucket and no earlier layout's, but such a pair counts toward the local
// density of every later layout whose bucket the two also share; Sig says
// which. Cells of layouts before Own stay zero. One column per layout, so
// that crediting a strip of neighbours walks each layout's column once.
//
// The plain ρ of Basic-DDP and EDDPC is the one-column case, Layouts = 1
// and no Sig: every pair counts once, for both its rows.
type Credit struct {
	Layouts int
	Own     int
	// Sig[l·n+r] identifies row r's bucket under layout l: equal for two
	// rows exactly when they share it. Only layouts after Own are read.
	Sig    []int32
	Counts []int32
	// Near, when set (the LSH reducers, Reset to the walk's rows), is also
	// offered every pair the walk evaluates, both ways round: each row's
	// nearest partners come out of distances the walk computes anyway.
	Near *Near
}

// Reset sizes the accumulator to n rows and zeroes it.
func (c *Credit) Reset(n int) {
	cells := n * c.Layouts
	if cap(c.Counts) < cells {
		c.Counts = make([]int32, cells)
	}
	c.Counts = c.Counts[:cells]
	clear(c.Counts)
}

// Share returns row r's density under layout l from the pairs credited so
// far.
func (c *Credit) Share(r, l int) float64 {
	return float64(c.Counts[l*(len(c.Counts)/c.Layouts)+r])
}

// Rho adds the density contribution of every pair in blocks to cr, which the
// caller has Reset to m's rows, and returns the number of distance
// evaluations. The counts equal the naive loop's over the list.
func Rho(m *points.Matrix, blocks []Block, k Kernel, cr *Credit) int64 {
	scan := rhoScan{data: m.Data(), ids: m.IDs(), dim: m.Dim(), n: m.N(), k: k, cr: cr}
	forTiles(blocks, scan.tile)
	return blockPairs(blocks)
}

// rhoScan carries the per-call state of a ρ scan.
type rhoScan struct {
	data   []float64
	ids    []int32
	dim, n int
	k      Kernel
	cr     *Credit
}

// tile is the one ρ strip evaluator: it credits the tile pair of rows
// [aLo, aHi) against rows [bLo, bHi), or the upper triangle of [aLo, aHi)
// when diag is set. Each a row's distances are one blocked strip (dist.go)
// observed in ascending b order, the visit order of the naive loop; with
// Credit.Near set the strip is offered to the neighbour lists first, which
// costs a compare per pair and each row's list a few insertions.
//
// With one column to credit (Layouts − Own = 1: plain ρ, and the last
// layout's LSH reducer) neighbours are counted without a data-dependent
// branch straight into the column. Routing that case through the hit list
// and the per-layout walk below costs 9–13 % per pair (DESIGN.md "Dense
// compute layer"), all of it overhead when there is no second column to
// compare signatures for. With more columns the strip's neighbours are
// compacted into a hit list, again without a branch (the test goes either
// way about as often as not), and only the hits pay for the per-layout
// signature compare.
func (s *rhoScan) tile(aLo, aHi, bLo, bHi int, diag bool) {
	var d2 [tile]float64
	var hits [tile]int32
	data, dim, dc2 := s.data, s.dim, s.k.Dc2
	one, own := s.cr.Layouts-s.cr.Own == 1, s.cr.Own*s.n
	for a := aLo; a < aHi; a++ {
		jLo := bLo
		if diag {
			jLo = a + 1
		}
		strip := d2[:bHi-jLo]
		sqDistRange(data[a*dim:(a+1)*dim], data, jLo, strip)
		if s.cr.Near != nil {
			s.cr.Near.strip(a, s.ids, jLo, strip)
		}
		if one {
			s.cr.Counts[own+a] += countBelow(strip, dc2, s.cr.Counts[own+jLo:])
			continue
		}
		s.creditHits(a, jLo, compactBelow(strip, dc2, hits[:]))
	}
}

// compactBelow writes the indexes x of strip with strip[x] < bound to hits,
// in ascending order, and returns them. The conditional increment compiles
// to a select, not a jump.
func compactBelow(strip []float64, bound float64, hits []int32) []int32 {
	n := 0
	for x, v := range strip {
		hits[n] = int32(x)
		if v < bound {
			n++
		}
	}
	return hits[:n]
}

// creditHits counts row a and each of its neighbours jLo+hits[·] toward one
// another under the reducer's own layout and every later layout whose
// bucket the two share. Layout by layout, so that the inner loop reads one
// signature column against a constant and touches each neighbour's counter
// once: no chain of dependent updates on row a's counters.
func (s *rhoScan) creditHits(a, jLo int, hits []int32) {
	n := s.n
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
