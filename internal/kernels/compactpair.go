package kernels

// Compact (float32) variants of the pairwise ρ/δ kernels. Each pair's
// squared distance is first computed over a float32 mirror of the group
// (points.Matrix32); the Bounds contract then proves, for most pairs, that
// the exact float64 distance could not change the accumulator — the pair
// is skipped — and the few pairs inside the uncertainty band are re-checked
// with the exact float64 arithmetic in the original visit order. The
// accumulator therefore evolves through exactly the same float64 state
// transitions as the plain kernels:
//
//   - cutoff ρ: bit-identical (each pair's contribution is exactly 0 or 1,
//     decided either provably from the compact distance or exactly);
//   - δ (Best2/Up/Max2): bit-identical, including the first-wins tie rule
//     (a skipped pair provably could not update; an evaluated pair uses the
//     exact distance);
//   - Gaussian ρ: within documented tolerance, NOT bit-identical — the
//     weight exp(−d²/d_c²) varies continuously, so it is computed from the
//     float64-promoted compact distance (relative error ≤ ~2⁻²⁰·dim on d²).
//     The accumulation order matches the plain kernel, so results are still
//     deterministic and engine-independent for a fixed precision setting.
//
// Pairs whose compact distance is NaN/+Inf always take the exact re-check.

import "repro/internal/points"

// RhoAccumulate32 is the compact-scan counterpart of RhoAccumulate over
// rows [lo, hi): c must mirror m. Returns the pair count (as RhoAccumulate
// does) and the number of exact float64 re-checks.
func RhoAccumulate32(m *points.Matrix, c *points.Matrix32, lo, hi int, k Kernel, rho []float64) (pairs, rechecks int64) {
	return rhoBlock32(m, c, Triangle(lo, hi), k, rho, true)
}

// RhoCross32 is the compact-scan counterpart of RhoCross.
func RhoCross32(m *points.Matrix, c *points.Matrix32, aLo, aHi, bLo, bHi int, k Kernel, rho []float64, both bool) (pairs, rechecks int64) {
	return rhoBlock32(m, c, Cross(aLo, aHi, bLo, bHi), k, rho, both)
}

func rhoBlock32(m *points.Matrix, c *points.Matrix32, b Block, k Kernel, rho []float64, both bool) (pairs, rechecks int64) {
	if b.Pairs() == 0 {
		return 0, 0
	}
	ctx := newRho32Ctx(m, c, k, rho)
	forTiles([]Block{b}, 0, 1, func(aLo, aHi, bLo, bHi int, diag bool) {
		ctx.tile(aLo, aHi, bLo, bHi, diag, both)
	})
	return b.Pairs(), ctx.rechecks
}

// rho32Ctx carries the per-call state of a compact ρ scan.
type rho32Ctx struct {
	d64      []float64
	d32      []float32
	dim      int
	k        Kernel
	rho      []float64
	cutLo    float64 // d32 < cutLo proves d64 < Dc2 (cutoff weight 1)
	cutHi    float64 // d32 > cutHi proves d64 ≥ Dc2 (cutoff weight 0)
	rechecks int64
}

func newRho32Ctx(m *points.Matrix, c *points.Matrix32, k Kernel, rho []float64) *rho32Ctx {
	ctx := &rho32Ctx{d64: m.Data(), d32: c.Data(), dim: m.Dim(), k: k, rho: rho}
	if !k.Gaussian {
		bnd := F32Bounds(ctx.dim, c.MaxAbs())
		ctx.cutLo = bnd.LtThresh(k.Dc2)
		ctx.cutHi = bnd.GeThresh(k.Dc2)
	}
	return ctx
}

// exact re-checks one pair in float64.
func (ctx *rho32Ctx) exact(i, j int) float64 {
	ctx.rechecks++
	return sqDistFlat(ctx.d64[i*ctx.dim:], ctx.d64[j*ctx.dim:], ctx.dim)
}

// tile is rhoTile over the float32 mirror: the same strips, visit order and
// integer cutoff counters, with each pair's contribution decided from its
// compact distance where the bounds allow and re-checked exactly otherwise.
func (ctx *rho32Ctx) tile(aLo, aHi, bLo, bHi int, diag, both bool) {
	d32, dim, k, rho := ctx.d32, ctx.dim, ctx.k, ctx.rho
	var strip32 [tile]float32
	var cnt [tile]int32
	for a := aLo; a < aHi; a++ {
		jLo := bLo
		if diag {
			jLo = a + 1
		}
		strip := strip32[:bHi-jLo]
		sqDistRange(d32[a*dim:(a+1)*dim], d32, jLo, strip)
		if !k.Gaussian {
			// Provable neighbours are counted branch-free; the undecided
			// band (and every non-finite compact distance) is rare.
			n := countBelow(strip, ctx.cutLo, cnt[jLo-bLo:])
			for x, v := range strip {
				if df := float64(v); !(df < ctx.cutLo) && !(df > ctx.cutHi) && ctx.exact(a, jLo+x) < k.Dc2 {
					cnt[jLo-bLo+x]++
					n++
				}
			}
			rho[a] += float64(n)
			continue
		}
		for x, v := range strip {
			df := float64(v)
			if !isFinite64(df) {
				df = ctx.exact(a, jLo+x)
			}
			if w := gaussWeight(df, k.Dc2); w != 0 {
				rho[a] += w
				if both {
					rho[jLo+x] += w
				}
			}
		}
	}
	if !k.Gaussian && both {
		for x, c := range cnt[:bHi-bLo] {
			rho[bLo+x] += float64(c)
		}
	}
}

// DeltaBand holds per-row skip thresholds for a compact δ scan, kept in
// lockstep with a DeltaAcc: Thr[x] proves "no Best2[x] improvement" and
// MaxThr[x] proves "no Max2[x] update" from a compact distance alone.
type DeltaBand struct {
	Thr    []float64
	MaxThr []float64
	bnd    Bounds
}

// Reset sizes the band to acc (after acc's own Reset) under bnd.
func (b *DeltaBand) Reset(acc *DeltaAcc, bnd Bounds) {
	n := len(acc.Best2)
	b.bnd = bnd
	if cap(b.Thr) < n {
		b.Thr = make([]float64, n)
	}
	b.Thr = b.Thr[:n]
	for i := 0; i < n; i++ {
		b.Thr[i] = bnd.GeThresh(acc.Best2[i])
	}
	if acc.Max2 == nil {
		b.MaxThr = nil
		return
	}
	if cap(b.MaxThr) < n {
		b.MaxThr = make([]float64, n)
	}
	b.MaxThr = b.MaxThr[:n]
	for i := 0; i < n; i++ {
		b.MaxThr[i] = bnd.LtThresh(acc.Max2[i])
	}
}

// DeltaArgmin32 is the compact-scan counterpart of DeltaArgmin: c must
// mirror m, and band must be Reset against acc with this group's bounds
// (F32Bounds(m.Dim(), c.MaxAbs())). Returns the pair count and the number
// of exact re-checks.
func DeltaArgmin32(m *points.Matrix, c *points.Matrix32, lo, hi int, acc *DeltaAcc, band *DeltaBand) (pairs, rechecks int64) {
	b := Triangle(lo, hi)
	if b.Pairs() == 0 {
		return 0, 0
	}
	acc.rankRows(m, lo, hi, 0, 0)
	return deltaBlock32(m, c, b, acc, band)
}

// DeltaCross32 is the compact-scan counterpart of DeltaCross.
func DeltaCross32(m *points.Matrix, c *points.Matrix32, aLo, aHi, bLo, bHi int, acc *DeltaAcc, band *DeltaBand) (pairs, rechecks int64) {
	b := Cross(aLo, aHi, bLo, bHi)
	if b.Pairs() == 0 {
		return 0, 0
	}
	acc.rankRows(m, aLo, aHi, bLo, bHi)
	return deltaBlock32(m, c, b, acc, band)
}

// deltaBlock32 folds one block into acc, whose rows are already ranked.
func deltaBlock32(m *points.Matrix, c *points.Matrix32, b Block, acc *DeltaAcc, band *DeltaBand) (pairs, rechecks int64) {
	ctx := delta32Ctx{m: m, c: c, acc: acc, band: band}
	forTiles([]Block{b}, 0, 1, ctx.tilePairs)
	return b.Pairs(), ctx.rechecks
}

type delta32Ctx struct {
	m        *points.Matrix
	c        *points.Matrix32
	acc      *DeltaAcc
	band     *DeltaBand
	rechecks int64
}

// tilePairs is deltaTile over the float32 mirror. A pair is skipped only
// when its compact distance proves both that the less-dense side's Best2
// cannot improve and (when tracked) that neither side's Max2 can grow;
// otherwise the exact distance is folded in as deltaTile would and the
// touched rows' thresholds refresh.
func (ctx *delta32Ctx) tilePairs(aLo, aHi, bLo, bHi int, diag bool) {
	d32, dim := ctx.c.Data(), ctx.c.Dim()
	d64 := ctx.m.Data()
	acc, band := ctx.acc, ctx.band
	best2, up, max2, rank := acc.Best2, acc.Up, acc.Max2, acc.rank
	var strip32 [tile]float32
	for i := aLo; i < aHi; i++ {
		jLo := bLo
		if diag {
			jLo = i + 1
		}
		strip := strip32[:bHi-jLo]
		sqDistRange(d32[i*dim:(i+1)*dim], d32, jLo, strip)
		ri := earlierRank(rank, i)
		for x, v := range strip {
			df, j := float64(v), jLo+x
			t := lessDense(i, j, ri, rank[j])
			if df > band.Thr[t] &&
				(band.MaxThr == nil || (df < band.MaxThr[i] && df < band.MaxThr[j])) {
				continue
			}
			ctx.rechecks++
			d2 := sqDistFlat(d64[i*dim:], d64[j*dim:], dim)
			if max2 != nil {
				if d2 > max2[i] {
					max2[i] = d2
					band.MaxThr[i] = band.bnd.LtThresh(d2)
				}
				if d2 > max2[j] {
					max2[j] = d2
					band.MaxThr[j] = band.bnd.LtThresh(d2)
				}
			}
			if d2 < best2[t] {
				best2[t] = d2
				up[t] = int32(i + j - t)
				band.Thr[t] = band.bnd.GeThresh(d2)
			}
		}
	}
}

func isFinite64(v float64) bool { return v-v == 0 }
