// Package kernels provides the dense pairwise compute layer shared by every
// distributed Density Peaks pipeline in this repository. The paper's two
// reducer loops are two functions: Rho (local density, blocks.go) and Delta
// (distance to the nearest denser point, below). A reducer hands either one
// the list of blocks whose pairs it owns (Block) and gets back the number of
// distances evaluated, which it adds to dp.distance.computations. Both are
// one serial float64 walk: the engine's task-level parallelism is the only
// parallelism, and no float32 mirror is scanned (measured slower than
// float64 on the pair kernels; DESIGN.md "Dense compute layer").
// RhoAccumulate and DeltaArgmin are the same two over one whole triangle.
//
// The paper's dominant cost is pairwise distance work inside reducers.
// These kernels walk one contiguous coordinate array in cache-sized tiles,
// and inside a tile every distance comes from one register-blocked
// primitive (dist.go) that evaluates a row against four others at once, so
// the floating-point pipes run four independent add chains instead of
// waiting on one; the accumulator updates that follow are written without
// data-dependent branches (integer cutoff counters, a density rank for δ).
//
// Determinism guarantee: every pair kernel performs the same floating
// point operations in the same per-accumulator order as the naive
//
//	for i { for j > i { ... } }
//
// reference loop, so ρ sums and δ argmins are bit-identical to the
// pre-kernel implementation (the property tests in kernels_test.go assert
// this across dimensions, kernels, and chunkings). Tiles are visited in
// row-major upper-triangle order — for any accumulator row x the pairs
// (k, x), k < x arrive in ascending k and then the pairs (x, j), j > x in
// ascending j, exactly the order of the reference loop, so non-associative
// float addition cannot diverge. Each lane of the blocked primitive sums
// its own d*d terms in ascending coordinate order, as the scalar loop does.
package kernels

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/points"
)

var inf = math.Inf(1)

// gaussWeight is the Gaussian kernel contribution, exp(−d²/d_c²).
func gaussWeight(d2, dc2 float64) float64 { return math.Exp(-d2 / dc2) }

// tile is the block edge length of the pairwise loops. 128 rows of a
// 2-dimensional float64 matrix are 2 KiB, so one tile pair stays resident
// in L1 while its up-to-16k distance evaluations run.
const tile = 128

// Kernel selects the density estimator for the ρ kernels: the paper's
// cutoff kernel (weight 1 below d_c) or the Gaussian extension.
type Kernel struct {
	Gaussian bool
	Dc2      float64 // squared cutoff distance
}

// Weight returns the ρ contribution of one pair at squared distance d2.
func (k Kernel) Weight(d2 float64) float64 {
	if k.Gaussian {
		return gaussWeight(d2, k.Dc2)
	}
	if d2 < k.Dc2 {
		return 1
	}
	return 0
}

// RhoAccumulate adds every unordered pair's density contribution within
// rows [lo, hi) of m into rho (indexed like m's rows), returning the number
// of distance evaluations. Bit-identical to the naive i<j loop: Gaussian
// weights are added straight into rho's cells in visit order, and cutoff
// neighbours are counted as integers and folded in at the end, which is
// exact — a cutoff ρ only ever receives 1.0s, so every partial sum is an
// integer far below 2⁵³ and float64 addition of integers is associative
// there.
func RhoAccumulate(m *points.Matrix, lo, hi int, k Kernel, rho []float64) int64 {
	cr := Credit{Layouts: 1, Sums: rho}
	if !k.Gaussian {
		cr.Reset(hi, k)
	}
	nd := Rho(m, []Block{Triangle(lo, hi)}, k, &cr)
	for x, c := range cr.Counts {
		rho[x] += float64(c)
	}
	return nd
}

// countBelow adds 1 to cnt[x] for every strip[x] < dc2 and returns how many
// there were. The conditional assignment compiles to a select, not a jump:
// on real partitions the test goes either way about as often as not.
func countBelow(strip []float64, dc2 float64, cnt []int32) int32 {
	cnt = cnt[:len(strip)]
	var n int32
	for x, v := range strip {
		var c int32
		if v < dc2 {
			c = 1
		}
		cnt[x] += c
		n += c
	}
	return n
}

// DeltaAcc accumulates the δ-argmin state of one reducer group: per row the
// squared distance to the nearest denser row (Best2), that row's index in
// the matrix (Up, -1 when none seen), and — when tracking fallbacks for
// Basic-DDP's absolute-peak rule — the largest squared distance observed
// (Max2).
type DeltaAcc struct {
	Best2 []float64
	Up    []int32 // matrix row index of the best candidate, -1 when none
	Max2  []float64

	rank []int32   // density rank per matrix row, set by rankRows per call
	keys []rankKey // rankRows' sort scratch
}

// NewDeltaAcc returns an accumulator for n rows, with fallback tracking
// when withMax is set.
func NewDeltaAcc(n int, withMax bool) *DeltaAcc {
	acc := &DeltaAcc{Best2: make([]float64, n), Up: make([]int32, n)}
	for i := range acc.Best2 {
		acc.Best2[i] = inf
		acc.Up[i] = -1
	}
	if withMax {
		acc.Max2 = make([]float64, n)
	}
	return acc
}

// Reset re-initialises the accumulator for n rows, reusing its slices when
// capacity allows, so a hot reducer can keep one accumulator across groups.
func (a *DeltaAcc) Reset(n int, withMax bool) {
	if cap(a.Best2) < n {
		a.Best2 = make([]float64, n)
		a.Up = make([]int32, n)
	}
	a.Best2 = a.Best2[:n]
	a.Up = a.Up[:n]
	for i := 0; i < n; i++ {
		a.Best2[i] = inf
		a.Up[i] = -1
	}
	if !withMax {
		a.Max2 = nil
		return
	}
	if cap(a.Max2) < n {
		a.Max2 = make([]float64, n)
	}
	a.Max2 = a.Max2[:n]
	for i := 0; i < n; i++ {
		a.Max2[i] = 0
	}
}

// DeltaArgmin evaluates every unordered pair within rows [lo, hi) of m
// (which must carry densities) under the repository's density total order:
// the less dense row of each pair sees the other as an upslope candidate.
// Bit-identical to the naive i<j loop, including the first-wins tie rule
// for equal distances. Returns the number of distance evaluations.
func DeltaArgmin(m *points.Matrix, lo, hi int, acc *DeltaAcc) int64 {
	return Delta(m, []Block{Triangle(lo, hi)}, acc)
}

// Delta evaluates every pair in blocks under the density total order (see
// DeltaArgmin), ranking m's rows once for the whole list, and returns the
// number of distance evaluations. It leaves acc bit-identical to the naive
// loop over the list, also against state acc carries in from earlier calls.
func Delta(m *points.Matrix, blocks []Block, acc *DeltaAcc) int64 {
	pairs := blockPairs(blocks)
	if pairs == 0 {
		return 0
	}
	acc.rankRows(m)
	forTiles(blocks, func(aLo, aHi, bLo, bHi int, diag bool) {
		deltaTile(m, aLo, aHi, bLo, bHi, diag, acc)
	})
	return pairs
}

// rankKey is one row's sort key in the density order.
type rankKey struct {
	rho float64
	id  int32
	row int32
}

// rankNaN is the rank of a row whose density is NaN. dp.DenserVals calls
// such a row denser than nothing and nothing denser than it, which no single
// position expresses: it ranks last as the later row of a pair, and
// earlierRank reads it as first when it is the earlier one.
const rankNaN = math.MaxInt32

// earlierRank is row i's rank as the earlier row of its pairs.
func earlierRank(rank []int32, i int) int32 {
	if rank[i] == rankNaN {
		return 0
	}
	return rank[i]
}

// rankRows ranks the rows of m in the density order of dp.DenserVals —
// higher ρ first, lower ID on equal ρ — so the pair loops pick the δ update
// target with one integer compare instead of evaluating the order per pair,
// a branch that goes either way half the time. For an earlier row i and a
// later row j of a pair,
// rank[j] < earlierRank(rank, i) ⟺ DenserVals(ρj, ρi, idj, idi): the sort
// key is that order, and rows equal in both ρ and ID — neither denser than
// the other — share a rank.
func (acc *DeltaAcc) rankRows(m *points.Matrix) {
	rho, ids := m.Rhos(), m.IDs()
	n := m.N()
	if cap(acc.rank) < n {
		acc.rank = make([]int32, n)
		acc.keys = make([]rankKey, 0, n)
	}
	rank, keys := acc.rank[:n], acc.keys[:0]
	for x := 0; x < n; x++ {
		if rho[x] != rho[x] {
			rank[x] = rankNaN
			continue
		}
		keys = append(keys, rankKey{rho[x], ids[x], int32(x)})
	}
	acc.rank, acc.keys = rank, keys
	slices.SortFunc(keys, func(a, b rankKey) int {
		switch {
		case a.rho > b.rho:
			return -1
		case a.rho < b.rho:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	for x, k := range keys {
		if x > 0 && k.rho == keys[x-1].rho && k.id == keys[x-1].id {
			rank[k.row] = rank[keys[x-1].row]
		} else {
			rank[k.row] = int32(x)
		}
	}
}

// lessDense returns the row of the pair (i, j) whose upslope candidate their
// distance may improve: i when j is the denser (rj < ri), else j. It selects
// by mask because the compiler keeps a conditional assignment that feeds a
// load address as a jump, and this one goes either way half the time. Ranks
// are non-negative int32s, so rj−ri cannot wrap and its sign is the test.
func lessDense(i, j int, ri, rj int32) int {
	return j ^ (i^j)&int((rj-ri)>>31)
}

// deltaTile folds one tile pair into acc: rows [aLo, aHi) against rows
// [bLo, bHi), or the upper triangle of [aLo, aHi) when diag is set. Each
// row's distances are evaluated as one blocked strip (dist.go) and observed
// in ascending order of the other row, the visit order of the naive loop, so
// the strict-< first-wins rule sees the same candidate sequence.
func deltaTile(m *points.Matrix, aLo, aHi, bLo, bHi int, diag bool, acc *DeltaAcc) {
	data, dim := m.Data(), m.Dim()
	best2, up, max2, rank := acc.Best2, acc.Up, acc.Max2, acc.rank
	var d2 [tile]float64
	for i := aLo; i < aHi; i++ {
		jLo := bLo
		if diag {
			jLo = i + 1
		}
		strip := d2[:bHi-jLo]
		sqDistRange(data[i*dim:(i+1)*dim], data, jLo, strip)
		if max2 != nil {
			mi := max2[i]
			for x, v := range strip {
				if v > mi {
					mi = v
				}
				if v > max2[jLo+x] {
					max2[jLo+x] = v
				}
			}
			max2[i] = mi
		}
		ri := earlierRank(rank, i)
		for x, v := range strip {
			j := jLo + x
			t := lessDense(i, j, ri, rank[j])
			if v < best2[t] {
				best2[t] = v
				up[t] = int32(i + j - t)
			}
		}
	}
}
