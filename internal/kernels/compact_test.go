package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/points"
)

// Property tests for the compact scan path. The contract under test: a
// compact (f32 or q8) scan followed by an exact float64 re-rank of the
// shortlist is bit-identical to the pure float64 NN scan — same row index,
// same squared distance, same lowest-row-index tie rule, including the
// all-distances-overflow (-1, +Inf) case — and the compact ρ/δ kernels
// leave their accumulators in bit-identical float64 states (cutoff ρ and
// all δ state; Gaussian ρ within documented tolerance).

// randBlock fills n rows of dim at the given magnitude scale; a few
// duplicate and near-tie rows are planted to stress the tie rule and the
// admission band.
func randBlock(rng *rand.Rand, n, dim int, scale float64) []float64 {
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.NormFloat64() * scale
	}
	// Exact duplicates: rows k and k+1 identical (distance ties).
	for k := 0; k+1 < n; k += 7 {
		copy(data[(k+1)*dim:(k+2)*dim], data[k*dim:(k+1)*dim])
	}
	// Near ties: rows differing by one ulp-scale nudge in one coordinate.
	for k := 3; k+1 < n; k += 11 {
		copy(data[(k+1)*dim:(k+2)*dim], data[k*dim:(k+1)*dim])
		data[(k+1)*dim] = math.Nextafter(data[(k+1)*dim], math.Inf(1))
	}
	return data
}

// allRows lists rows [0, n) in ascending order.
func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// rerank32 runs the f32 shortlist scan over every row and re-ranks exactly.
func rerank32(data []float64, dim int, q []float64, bnd Bounds) (int, float64, int) {
	data32, _ := points.ToFloat32(data)
	q32, _ := points.ToFloat32(q)
	var sl Shortlist
	sl.Reset(bnd)
	NNRows32(data32, dim, q32, allRows(len(data)/dim), &sl)
	short := sl.Finish()
	b, b2 := NNRows(data, dim, q, short)
	return b, b2, len(short)
}

// rerankQ8 quantizes the block, scans it via a per-query LUT, re-ranks.
func rerankQ8(t *testing.T, data []float64, dim int, q []float64) (int, float64, int) {
	t.Helper()
	codes, par, ok := points.QuantizeQ8(data, dim)
	if !ok {
		t.Fatal("quantize failed")
	}
	var lut Q8LUT
	BuildQ8LUT(par, q, &lut)
	var sl Shortlist
	sl.Reset(Q8Bounds(dim, par.ErrBound()))
	NNRowsQ8(codes, dim, &lut, allRows(len(data)/dim), &sl)
	short := sl.Finish()
	b, b2 := NNRows(data, dim, q, short)
	return b, b2, len(short)
}

func blockMaxAbs(data []float64, q []float64) float64 {
	var m float64
	for _, v := range data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	for _, v := range q {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func TestCompactNNBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 2, 3, 5, 8, 9, 13, 17} {
		for _, scale := range []float64{1, 1e6, 1e-6, 1e120} {
			n := 300 + dim%4 // every n mod 4 remainder past the last full block
			data := randBlock(rng, n, dim, scale)
			for trial := 0; trial < 25; trial++ {
				q := make([]float64, dim)
				for d := range q {
					q[d] = rng.NormFloat64() * scale
				}
				if trial%5 == 0 { // exact hit: query equals a stored row
					copy(q, data[(trial*13%n)*dim:])
				}
				wantB, wantB2 := NNRange(data, dim, q, 0, n)

				bnd := F32Bounds(dim, blockMaxAbs(data, q))
				gotB, gotB2, short := rerank32(data, dim, q, bnd)
				if gotB != wantB || gotB2 != wantB2 {
					t.Fatalf("f32 dim=%d scale=%g trial=%d: got (%d, %v), want (%d, %v)",
						dim, scale, trial, gotB, gotB2, wantB, wantB2)
				}
				if short > n/4 && scale != 1e120 {
					t.Errorf("f32 dim=%d scale=%g: shortlist %d of %d rows — bound too loose", dim, scale, short, n)
				}

				qB, qB2, _ := rerankQ8(t, data, dim, q)
				if qB != wantB || qB2 != wantB2 {
					t.Fatalf("q8 dim=%d scale=%g trial=%d: got (%d, %v), want (%d, %v)",
						dim, scale, trial, qB, qB2, wantB, wantB2)
				}
			}
		}
	}
}

// TestCompactNNRowsSubset exercises the candidate-list (pruned) variant:
// shortlist over an arbitrary row subset re-ranked exactly must match
// NNRows over the same subset, duplicates and all.
func TestCompactNNRowsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dim, n := 4, 500
	data := randBlock(rng, n, dim, 10)
	data32, maxAbs := points.ToFloat32(data)
	codes, par, ok := points.QuantizeQ8(data, dim)
	if !ok {
		t.Fatal("quantize failed")
	}
	for trial := 0; trial < 50; trial++ {
		rows := make([]int32, 1+rng.Intn(200))
		for i := range rows {
			rows[i] = int32(rng.Intn(n))
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.NormFloat64() * 10
		}
		wantB, wantB2 := NNRows(data, dim, q, rows)

		q32, qMax := points.ToFloat32(q)
		var sl Shortlist
		sl.Reset(F32Bounds(dim, math.Max(maxAbs, qMax)))
		NNRows32(data32, dim, q32, rows, &sl)
		gotB, gotB2 := NNRows(data, dim, q, sl.Finish())
		if gotB != wantB || gotB2 != wantB2 {
			t.Fatalf("f32 rows trial %d: got (%d, %v), want (%d, %v)", trial, gotB, gotB2, wantB, wantB2)
		}

		var lut Q8LUT
		BuildQ8LUT(par, q, &lut)
		sl.Reset(Q8Bounds(dim, par.ErrBound()))
		NNRowsQ8(codes, dim, &lut, rows, &sl)
		gotB, gotB2 = NNRows(data, dim, q, sl.Finish())
		if gotB != wantB || gotB2 != wantB2 {
			t.Fatalf("q8 rows trial %d: got (%d, %v), want (%d, %v)", trial, gotB, gotB2, wantB, wantB2)
		}
	}
}

// TestCompactNNOverflow pins the ±Inf path from the PR 5 review fix:
// coordinates near the serving admission bound square to +Inf in float64,
// and overflow float32 outright; the compact path must keep such rows in
// the shortlist and reproduce the exact scan's (-1, +Inf) verdict.
func TestCompactNNOverflow(t *testing.T) {
	dim := 2
	huge := 1e160 // d² overflows f32 (and pair distances overflow f64)
	data := []float64{huge, huge, -huge, -huge, huge, -huge}
	q := []float64{-huge, huge}
	wantB, wantB2 := NNRange(data, dim, q, 0, 3)
	if wantB != -1 || !math.IsInf(wantB2, 1) {
		t.Fatalf("reference not overflowing: (%d, %v)", wantB, wantB2)
	}
	bnd := F32Bounds(dim, huge)
	gotB, gotB2, short := rerank32(data, dim, q, bnd)
	if gotB != wantB || gotB2 != wantB2 {
		t.Fatalf("f32 overflow: got (%d, %v), want (-1, +Inf)", gotB, gotB2)
	}
	if short != 3 {
		t.Fatalf("overflowing rows must all be shortlisted, got %d of 3", short)
	}

	// Mixed: one ordinary row among the overflowing ones must win.
	data = append(data, 1, 2)
	wantB, wantB2 = NNRange(data, dim, q, 0, 4)
	gotB, gotB2, _ = rerank32(data, dim, q, F32Bounds(dim, huge))
	if gotB != wantB || gotB2 != wantB2 {
		t.Fatalf("f32 mixed overflow: got (%d, %v), want (%d, %v)", gotB, gotB2, wantB, wantB2)
	}
	qB, qB2, _ := rerankQ8(t, data, dim, q)
	if qB != wantB || qB2 != wantB2 {
		t.Fatalf("q8 mixed overflow: got (%d, %v), want (%d, %v)", qB, qB2, wantB, wantB2)
	}
}

// TestShortlistRefilterGrowth drives the shortlist past its compaction
// limit with thousands of exact ties, which no threshold can prune.
func TestShortlistRefilterGrowth(t *testing.T) {
	dim, n := 2, 2000
	data := make([]float64, n*dim) // every row identical → all rows tie
	q := []float64{1, 1}
	wantB, wantB2 := NNRange(data, dim, q, 0, n)
	bnd := F32Bounds(dim, 1)
	gotB, gotB2, short := rerank32(data, dim, q, bnd)
	if gotB != wantB || gotB2 != wantB2 {
		t.Fatalf("tie flood: got (%d, %v), want (%d, %v)", gotB, gotB2, wantB, wantB2)
	}
	if short != n {
		t.Fatalf("tie flood must keep all %d rows, kept %d", n, short)
	}
	if wantB != 0 {
		t.Fatalf("tie rule: want row 0, got %d", wantB)
	}
}

func TestNNBatchMatchesNNRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim, n := 6, 700
	data := randBlock(rng, n, dim, 5)
	for _, nq := range []int{1, 2, 17, 64} {
		qs := make([]float64, nq*dim)
		for i := range qs {
			qs[i] = rng.NormFloat64() * 5
		}
		best := make([]int32, nq)
		best2 := make([]float64, nq)
		for _, lo := range []int{0, 129} {
			NNBatch(data, dim, qs, lo, n, best, best2)
			for qi := 0; qi < nq; qi++ {
				wb, wb2 := NNRange(data, dim, qs[qi*dim:(qi+1)*dim], lo, n)
				if int(best[qi]) != wb || best2[qi] != wb2 {
					t.Fatalf("nq=%d lo=%d q=%d: got (%d, %v), want (%d, %v)",
						nq, lo, qi, best[qi], best2[qi], wb, wb2)
				}
			}
		}
	}
	// dim-2 fast path.
	dim = 2
	data = randBlock(rng, n, dim, 5)
	qs := make([]float64, 8*dim)
	for i := range qs {
		qs[i] = rng.NormFloat64() * 5
	}
	best := make([]int32, 8)
	best2 := make([]float64, 8)
	NNBatch(data, dim, qs, 0, n, best, best2)
	for qi := 0; qi < 8; qi++ {
		wb, wb2 := NNRange(data, dim, qs[qi*dim:(qi+1)*dim], 0, n)
		if int(best[qi]) != wb || best2[qi] != wb2 {
			t.Fatalf("dim2 q=%d: got (%d, %v), want (%d, %v)", qi, best[qi], best2[qi], wb, wb2)
		}
	}
}

func TestBoundsContract(t *testing.T) {
	// Directly verify the Bounds inequality on random pairs, including
	// nasty magnitudes.
	rng := rand.New(rand.NewSource(31))
	for _, dim := range []int{1, 4, 16} {
		for _, scale := range []float64{1, 1e30, 1e-30} {
			bnd := F32Bounds(dim, scale*10)
			if !bnd.Valid() {
				t.Fatalf("bounds invalid at dim %d scale %g", dim, scale)
			}
			for trial := 0; trial < 2000; trial++ {
				a := make([]float64, dim)
				b := make([]float64, dim)
				for d := 0; d < dim; d++ {
					a[d] = rng.NormFloat64() * scale
					b[d] = a[d]
					if rng.Intn(3) > 0 {
						b[d] = rng.NormFloat64() * scale
					}
				}
				a32, _ := points.ToFloat32(a)
				b32, _ := points.ToFloat32(b)
				s64 := math.Sqrt(sqDist(a, b))
				s32 := math.Sqrt(float64(sqDist(a32, b32)))
				if math.IsInf(s32, 0) || math.IsNaN(s32) {
					// The contract covers finite compact distances only;
					// every kernel routes non-finite ones to the exact path.
					continue
				}
				lim := bnd.Rel*s64 + bnd.Abs
				if math.Abs(s32-s64) > lim {
					t.Fatalf("dim %d scale %g: |%g - %g| > %g", dim, scale, s32, s64, lim)
				}
			}
		}
	}
}
