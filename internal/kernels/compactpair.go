package kernels

// The compact (float32) scan of the pairwise ρ/δ kernels, which Rho and
// Delta run when Scan.F32 is set and the group stays off the worker pool;
// they borrow the group's pooled float32 mirror (points.Matrix32) and derive
// its F32Bounds themselves. Each pair's squared distance is first computed
// over the mirror; the Bounds contract then proves, for most pairs, that
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
// The ρ side is the float32 instantiation of the one strip evaluator
// (rhoTile, blocks.go); the δ side is below.

import "repro/internal/points"

// deltaBand holds per-row skip thresholds for a compact δ scan, kept in
// lockstep with the DeltaAcc that owns it: thr[x] proves "no Best2[x]
// improvement" and maxThr[x] proves "no Max2[x] update" from a compact
// distance alone.
type deltaBand struct {
	thr    []float64
	maxThr []float64
	bnd    Bounds
}

// reset sizes the band to acc's current state under bnd.
func (b *deltaBand) reset(acc *DeltaAcc, bnd Bounds) {
	n := len(acc.Best2)
	b.bnd = bnd
	if cap(b.thr) < n {
		b.thr = make([]float64, n)
	}
	b.thr = b.thr[:n]
	for i := 0; i < n; i++ {
		b.thr[i] = bnd.GeThresh(acc.Best2[i])
	}
	if acc.Max2 == nil {
		b.maxThr = nil
		return
	}
	if cap(b.maxThr) < n {
		b.maxThr = make([]float64, n)
	}
	b.maxThr = b.maxThr[:n]
	for i := 0; i < n; i++ {
		b.maxThr[i] = bnd.LtThresh(acc.Max2[i])
	}
}

// deltaCompact folds blocks into acc, whose rows are already ranked, over
// m's float32 mirror, and returns the number of exact re-checks.
func deltaCompact(m *points.Matrix, blocks []Block, acc *DeltaAcc) int64 {
	c := points.GetMatrix32(m)
	defer points.PutMatrix32(c)
	acc.band.reset(acc, F32Bounds(m.Dim(), c.MaxAbs()))
	ctx := delta32Ctx{m: m, c: c, acc: acc}
	forTiles(blocks, 0, 1, ctx.tilePairs)
	return ctx.rechecks
}

type delta32Ctx struct {
	m        *points.Matrix
	c        *points.Matrix32
	acc      *DeltaAcc
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
	acc, band := ctx.acc, &ctx.acc.band
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
			if df > band.thr[t] &&
				(band.maxThr == nil || (df < band.maxThr[i] && df < band.maxThr[j])) {
				continue
			}
			ctx.rechecks++
			d2 := sqDistFlat(d64[i*dim:], d64[j*dim:], dim)
			if max2 != nil {
				if d2 > max2[i] {
					max2[i] = d2
					band.maxThr[i] = band.bnd.LtThresh(d2)
				}
				if d2 > max2[j] {
					max2[j] = d2
					band.maxThr[j] = band.bnd.LtThresh(d2)
				}
			}
			if d2 < best2[t] {
				best2[t] = d2
				up[t] = int32(i + j - t)
				band.thr[t] = band.bnd.GeThresh(d2)
			}
		}
	}
}

func isFinite64(v float64) bool { return v-v == 0 }
