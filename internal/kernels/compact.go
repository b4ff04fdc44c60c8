package kernels

// Compact (float32 / 8-bit-quantized) NN scan kernels with exact float64
// re-rank. The scan streams a compact mirror of the coordinate block —
// half or an eighth of the float64 bytes — and collects a shortlist of
// every row that *could* be the true nearest neighbor under a sound error
// bound; the caller then re-ranks the shortlist with the exact float64
// kernels (NNRows), so the final result — index, squared distance, and the
// lowest-row-index tie rule — is bit-identical to a pure float64 scan.
//
// Soundness rests on one contract (Bounds): the compact squared distance
// d32 and the exact squared distance d64 of the same row pair satisfy
//
//	|sqrt(d32) − sqrt(d64)| ≤ Rel·sqrt(d64) + Abs
//
// with Rel/Abs chosen far above the worst-case rounding of the compact
// arithmetic (see F32Bounds/Q8Bounds). Every admission test is arranged so
// that a NaN or +Inf compact distance — coordinate overflow on conversion,
// underflow pile-ups, quantizer corner cases — fails toward "keep the row",
// so pathological inputs degrade to a full re-rank, never a wrong answer.

import (
	"math"

	"repro/internal/points"
)

// Scan precision values of the serving knob (serve.scan.precision).
const (
	ScanF64 = "f64"
	ScanF32 = "f32"
	ScanQ8  = "q8"
)

// Bounds is the error contract between a finite compact squared distance
// and its exact float64 counterpart:
// |sqrt(d32) − sqrt(d64)| ≤ Rel·sqrt(d64) + Abs. A non-finite compact
// distance (overflow to +Inf, NaN) carries no information and every kernel
// routes it to the exact path instead.
// KeepThresh is sound for any Rel in [0, 1) and Abs ≥ 0; the
// constructors below build Rel/Abs with ≥8x margin over worst-case
// rounding, so the shortlists they gate stay tiny on real data.
type Bounds struct {
	Rel float64
	Abs float64
}

// F32Bounds bounds a float32 mirror scan: dim-dimensional rows whose
// float64 source coordinates are bounded by maxAbs in magnitude (both
// operands — use the larger of the block's and the query's maximum).
//
//   - Rel covers the relative rounding of dim float32 subtract/multiply/add
//     steps (worst case ~(dim+2)·2⁻²⁴ on the squared distance, i.e. half
//     that on the distance; (dim+6)·2⁻²⁰ is ≥16x margin).
//   - Abs covers coordinate conversion error (≤ maxAbs·2⁻²⁴ per coordinate,
//     so ≤ √dim·2·maxAbs·2⁻²⁴ on the distance; the 2⁻¹⁸ factor is 64x
//     margin) plus a √dim·2⁻⁵⁵ floor for float32 underflow: subnormal
//     squares carry absolute error up to ~2⁻¹²⁶ each, which perturbs the
//     distance by at most ~√dim·2⁻⁶³.
func F32Bounds(dim int, maxAbs float64) Bounds {
	sd := math.Sqrt(float64(dim))
	return Bounds{
		Rel: float64(dim+6) * 0x1p-20,
		Abs: sd * (maxAbs*0x1p-18 + 0x1p-55),
	}
}

// Q8Bounds bounds a quantized-code scan against a per-query lookup table
// built from the exact query (BuildQ8LUT): errBound is
// points.Q8Params.ErrBound(), already 2x the worst-case Euclidean
// displacement between a stored row and its dequantized form. Rel covers
// the float32 rounding of the table entries and their summation; the floor
// covers underflow as in F32Bounds.
func Q8Bounds(dim int, errBound float64) Bounds {
	return Bounds{
		Rel: float64(dim+6) * 0x1p-20,
		Abs: errBound + math.Sqrt(float64(dim))*0x1p-55,
	}
}

// Valid reports whether the bounds are usable (finite, Rel < 1). Invalid
// bounds would still be sound — the threshold degenerates to "keep
// everything" — but a caller holding them should prefer the
// plain float64 path.
func (b Bounds) Valid() bool {
	return b.Rel >= 0 && b.Rel < 1 && b.Abs >= 0 &&
		!math.IsInf(b.Rel, 0) && !math.IsInf(b.Abs, 0) &&
		!math.IsNaN(b.Rel) && !math.IsNaN(b.Abs)
}

// KeepThresh returns the shortlist admission threshold for a running
// compact best b32 (a float64-promoted float32 squared distance): every
// row whose exact distance ties or beats the exact distance of the current
// compact-best row satisfies float64(d32) ≤ KeepThresh(b32). Rows above
// the threshold are provably not the nearest neighbor (nor tied for it).
func (b Bounds) KeepThresh(b32 float64) float64 {
	if !(b32 < inf) || !(b.Rel < 1) {
		return inf
	}
	s := math.Sqrt(b32)
	u := (s + b.Abs) / (1 - b.Rel) // ≥ exact distance of the compact-best row
	t := u*(1+b.Rel) + b.Abs       // ≥ compact distance of any row at least that close
	return t * t
}

// shortlistCompactAt is the shortlist length that triggers re-filtering
// against the tightened threshold. Genuine mass ties can exceed any fixed
// cap, so the limit doubles when a compaction fails to shrink the list.
const shortlistCompactAt = 256

// Shortlist collects candidate rows during a compact nearest-neighbour scan:
// every observed row whose compact distance does not provably exceed the
// best possible exact distance of the nearest row. Reset it with the scan's
// Bounds, feed it via the compact NN kernels, then Finish and re-rank the
// surviving rows with NNRows over the float64 data: the final (row,
// distance) — including the lowest-row-index tie rule — is bit-identical to
// a pure float64 scan.
//
// Soundness: the shortlist tracks the smallest finite compact distance seen,
// h. Some observed row has compact squared distance h, so by the Bounds
// contract its exact distance is at most u = (√h + Abs)/(1 − Rel) — hence
// the true nearest distance is ≤ u, and the true nearest row (or any row
// tied with it) has compact squared distance ≤ KeepThresh(h) =
// (u·(1+Rel) + Abs)². Rows are only dropped when strictly above that
// threshold, and the threshold only tightens as h falls, so the true nearest
// row is never discarded. A NaN compact distance is admitted and never
// tightens the threshold, and neither does a +Inf compact distance
// (admissible only while the threshold is still +Inf), so overflow degrades
// to a larger re-rank, never a wrong answer.
type Shortlist struct {
	Rows  []int32
	d2    []float32
	best  float64 // smallest finite compact distance seen, +Inf before one
	thr   float64
	bnd   Bounds
	limit int
}

// Reset prepares the shortlist for one nearest-neighbour scan under the
// given bounds, keeping backing storage.
func (sl *Shortlist) Reset(bnd Bounds) {
	sl.Rows = sl.Rows[:0]
	sl.d2 = sl.d2[:0]
	sl.best = inf
	sl.thr = inf
	sl.bnd = bnd
	sl.limit = shortlistCompactAt
}

// observe folds one scanned row into the shortlist. Comparisons are
// arranged so that a NaN or +Inf compact distance is admitted and never
// becomes the best.
func (sl *Shortlist) observe(row int32, d32 float32) {
	df := float64(d32)
	if df > sl.thr {
		return
	}
	sl.Rows = append(sl.Rows, row)
	sl.d2 = append(sl.d2, d32)
	if df < sl.best {
		sl.best = df
		sl.thr = sl.bnd.KeepThresh(df)
	}
	if len(sl.Rows) >= sl.limit {
		sl.refilter()
		if 2*len(sl.Rows) > sl.limit {
			sl.limit = 2 * len(sl.Rows)
		}
	}
}

// refilter drops rows excluded by the current threshold (NaN survives).
func (sl *Shortlist) refilter() {
	w := 0
	for i, r := range sl.Rows {
		if !(float64(sl.d2[i]) > sl.thr) {
			sl.Rows[w] = r
			sl.d2[w] = sl.d2[i]
			w++
		}
	}
	sl.Rows = sl.Rows[:w]
	sl.d2 = sl.d2[:w]
}

// Finish applies the final threshold and returns the surviving rows, each
// listed at most once. The slice aliases the shortlist and is invalidated
// by the next Reset.
func (sl *Shortlist) Finish() []int32 {
	sl.refilter()
	return sl.Rows
}

// Threshold returns the admission threshold on compact squared distances,
// +Inf until a row with a finite one is held. It is also an upper bound on
// the exact squared distance of the compact-best row the list holds
// (KeepThresh inflates past that row's exact distance before inflating
// back), so a row whose exact squared distance provably exceeds it — Sweep's
// axis-gap test — cannot be the nearest or tie with it.
func (sl *Shortlist) Threshold() float64 { return sl.thr }

// admit folds one strip of compact distances into sl; strip[x] belongs to
// rows[x]. The admission reject — the overwhelmingly common case once a
// good best is seen — is hoisted out of observe so the hot loop pays one
// comparison per row; NaN fails the rejection test and reaches observe, as
// required.
func admit(sl *Shortlist, strip []float32, rows []int32) {
	thr := sl.thr
	for x, v := range strip {
		if float64(v) > thr {
			continue
		}
		sl.observe(rows[x], v)
		thr = sl.thr
	}
}

// NNRows32 scans the listed rows of the float32 mirror into the shortlist
// (which the caller has Reset with this scan's Bounds), one blocked
// distance strip (dist.go) at a time.
func NNRows32(data32 []float32, dim int, q32 []float32, rows []int32, sl *Shortlist) {
	var d2 [nnTile]float32
	for len(rows) > 0 {
		part := rows[:min(nnTile, len(rows))]
		rows = rows[len(part):]
		sqDistRows(q32[:dim], data32, part, d2[:len(part)])
		admit(sl, d2[:len(part)], part)
	}
}

// Q8LUT is the per-query lookup table of a quantized scan: Tab[d·256+c] is
// the float32 squared residual between query coordinate d and code c's
// dequantized value, so a row's compact squared distance is dim table
// loads and adds — no multiplies, and only one byte of coordinate data
// streamed per dimension.
type Q8LUT struct {
	Tab []float32
}

// BuildQ8LUT fills the table for query q (exact float64 coordinates)
// against the block's quantization parameters, reusing lut's storage.
func BuildQ8LUT(p points.Q8Params, q []float64, lut *Q8LUT) {
	dim := p.Dim()
	need := dim * 256
	if cap(lut.Tab) < need {
		lut.Tab = make([]float32, need)
	}
	lut.Tab = lut.Tab[:need]
	for d := 0; d < dim; d++ {
		qd, mn, sc := q[d], p.Min[d], p.Scale[d]
		row := lut.Tab[d*256 : (d+1)*256]
		for c := range row {
			diff := qd - (mn + sc*float64(c))
			row[c] = float32(diff * diff)
		}
	}
}

// q8Dist sums the table entries of one row's codes.
func q8Dist(codes []uint8, tab []float32) float32 {
	var s float32
	for t, c := range codes {
		s += tab[t*256:][:256][c]
	}
	return s
}

// q8Dist4 is q8Dist over four rows at once, the blocking of sqDist4: four
// independent sums, each adding its own entries in ascending coordinate
// order, so every lane equals the q8Dist call it replaces.
func q8Dist4(c0, c1, c2, c3 []uint8, tab []float32) (s0, s1, s2, s3 float32) {
	for t, c := range c0 {
		row := tab[t*256:][:256]
		s0 += row[c]
		s1 += row[c1[t]]
		s2 += row[c2[t]]
		s3 += row[c3[t]]
	}
	return
}

// q8DistRows writes the table distances of the listed rows of the code
// block into out, four rows per step (see sqDistRows).
func q8DistRows(codes []uint8, dim int, tab []float32, rows []int32, out []float32) {
	out = out[:len(rows)]
	for ; len(rows) >= 4; out, rows = out[4:], rows[4:] {
		r0, r1, r2, r3 := int(rows[0])*dim, int(rows[1])*dim, int(rows[2])*dim, int(rows[3])*dim
		out[0], out[1], out[2], out[3] = q8Dist4(codes[r0:][:dim], codes[r1:][:dim], codes[r2:][:dim], codes[r3:][:dim], tab)
	}
	for j, r := range rows {
		out[j] = q8Dist(codes[int(r)*dim:][:dim], tab)
	}
}

// NNRowsQ8 scans the listed rows of the quantized block into the
// shortlist (Reset by the caller with Q8Bounds).
func NNRowsQ8(codes []uint8, dim int, lut *Q8LUT, rows []int32, sl *Shortlist) {
	var d2 [nnTile]float32
	for len(rows) > 0 {
		part := rows[:min(nnTile, len(rows))]
		rows = rows[len(part):]
		q8DistRows(codes, dim, lut.Tab, part, d2[:len(part)])
		admit(sl, d2[:len(part)], part)
	}
}
