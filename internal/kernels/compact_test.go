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
// leave their accumulators in bit-identical float64 states (ρ and all δ
// state).

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
				wantB, wantB2 := naiveNN(data, dim, q, allRows(n))

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
	wantB, wantB2 := naiveNN(data, dim, q, allRows(3))
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
	wantB, wantB2 = naiveNN(data, dim, q, allRows(4))
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
	wantB, wantB2 := naiveNN(data, dim, q, allRows(n))
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

// capCoord maps one byte to a coordinate: mostly quarter-integers, so
// distance ties are common, with extreme and non-finite values at the top
// codes.
func capCoord(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(-1)
	case 0xfd:
		return 1e300
	case 0xfc:
		return 1e-300
	case 0xfb:
		return math.Copysign(0, -1)
	}
	return float64(int8(b)) / 4
}

// FuzzShortlistCap decodes bytes into a dimension, a query and rows, and a
// bound — arbitrary bits, a row's exact squared distance, or one ULP below
// it — and scans the rows through a Shortlist capped at the bound, at f32
// and q8. Every row whose exact squared distance ties or beats the bound
// survives Finish when scanned alone, so the cap never drops one by itself;
// over all rows, the re-ranked survivors within the bound give NNRows over
// the rows within it. Never a panic.
func FuzzShortlistCap(f *testing.F) {
	f.Add([]byte{0, 4, 4, 8, 252}, uint8(1), uint64(0))
	f.Add([]byte{1, 0, 0, 4, 4, 4, 4, 8, 8, 255, 0}, uint8(2), uint64(0))
	f.Add([]byte{2, 1, 2, 3, 1, 2, 3, 1, 2, 4, 253, 2, 2}, uint8(0), math.Float64bits(2.25))
	f.Add([]byte{3, 9, 9, 9, 9, 9, 9, 9, 9, 251, 9, 9, 9, 254, 0, 0, 0}, uint8(4), uint64(0))
	f.Fuzz(func(t *testing.T, in []byte, pick uint8, bits uint64) {
		if len(in) < 2 {
			return
		}
		dim := 1 + int(in[0]%4)
		vals := make([]float64, 0, len(in)-1)
		for _, b := range in[1:] {
			vals = append(vals, capCoord(b))
		}
		if len(vals) < 2*dim {
			return
		}
		q, data := vals[:dim], vals[dim:]
		data = data[:len(data)/dim*dim]
		n := len(data) / dim
		d2 := make([]float64, n)
		for r := range d2 {
			d2[r] = sqDist(q, data[r*dim:][:dim])
		}
		bound := math.Float64frombits(bits)
		if r := int(pick/3) % n; pick%3 == 1 {
			bound = d2[r]
		} else if pick%3 == 2 {
			bound = math.Nextafter(d2[r], 0)
		}
		var inBound []int32
		for r, v := range d2 {
			if v <= bound {
				inBound = append(inBound, int32(r))
			}
		}
		wantB, wantB2 := NNRows(data, dim, q, inBound)

		// Each precision's bounds and its kernel feeding rows into a shortlist.
		type prec struct {
			bnd  Bounds
			feed func(rows []int32, sl *Shortlist)
		}
		var precs []prec
		data32, maxAbs := points.ToFloat32(data)
		q32, qMax := points.ToFloat32(q)
		if bnd := F32Bounds(dim, math.Max(maxAbs, qMax)); bnd.Valid() {
			precs = append(precs, prec{bnd, func(rows []int32, sl *Shortlist) { NNRows32(data32, dim, q32, rows, sl) }})
		}
		if codes, par, ok := points.QuantizeQ8(data, dim); ok {
			if bnd := Q8Bounds(dim, par.ErrBound()); bnd.Valid() {
				var lut Q8LUT
				BuildQ8LUT(par, q, &lut)
				precs = append(precs, prec{bnd, func(rows []int32, sl *Shortlist) { NNRowsQ8(codes, dim, &lut, rows, sl) }})
			}
		}
		for k, p := range precs {
			var sl Shortlist
			for _, r := range inBound {
				sl.Reset(p.bnd)
				sl.Cap(bound)
				p.feed([]int32{r}, &sl)
				if short := sl.Finish(); len(short) != 1 {
					t.Fatalf("scan %d dim %d: row %d at d² %v within bound %v dropped (cap %v)", k, dim, r, d2[r], bound, p.bnd.capThresh(bound))
				}
			}
			sl.Reset(p.bnd)
			sl.Cap(bound)
			p.feed(allRows(n), &sl)
			b, b2 := NNRows(data, dim, q, sl.Finish())
			if !(b2 <= bound) {
				b, b2 = -1, math.Inf(1)
			}
			if b != wantB || math.Float64bits(b2) != math.Float64bits(wantB2) {
				t.Fatalf("scan %d dim %d bound %v: capped scan (%d, %v), rows within the bound (%d, %v)", k, dim, bound, b, b2, wantB, wantB2)
			}
		}
	})
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

// compactCoord maps one byte to a coordinate: mostly quarter-integers, so
// distance ties are common, with the values a compact distance mishandles —
// NaN, ±Inf, ±1e300 (no float32 holds it), ±1.5e19 (a float32 holds it, but
// not the square of a distance between two such), −0, 1e-300 — at the top
// codes.
func compactCoord(b byte) float64 {
	switch b {
	case 0xf8:
		return 1.5e19
	case 0xf7:
		return -1.5e19
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	case 0xfc:
		return 1e300
	case 0xfb:
		return -1e300
	case 0xfa:
		return math.Copysign(0, -1)
	case 0xf9:
		return 1e-300
	}
	return float64(int8(b)) / 4
}

// FuzzTopKCompact decodes bytes into a dimension, a query and rows, and a
// cap — arbitrary bits, a row's exact squared distance, or one ULP below
// it — and scans the rows, in a fuzz-chosen order and split, through
// TopKCompact at f64 and q8 (wherever an engine would serve q8) into a
// capped k = 1 TopKAcc. The accumulator must end holding exactly what
// TopKRows leaves over the same rows — the same (row, D2), or both empty —
// from no more exact distances than rows given; without a source every row
// is counted. Never a panic.
func FuzzTopKCompact(f *testing.F) {
	f.Add([]byte{0, 4, 4, 8, 252}, uint8(1), uint64(0))
	f.Add([]byte{1, 0, 0, 4, 4, 4, 4, 8, 8, 255, 0}, uint8(2), uint64(0))
	f.Add([]byte{2, 1, 2, 3, 1, 2, 3, 1, 2, 4, 252, 2, 2}, uint8(0), math.Float64bits(2.25))
	f.Add([]byte{3, 9, 9, 9, 9, 9, 9, 9, 9, 251, 9, 9, 9, 254, 0, 0, 0}, uint8(4), uint64(0))
	f.Add([]byte{1, 252, 251, 252, 252, 251, 251, 0, 0, 252, 250}, uint8(7), math.Float64bits(math.Inf(1)))
	// Two rows tied at a squared distance float32 overflows on, the
	// higher-indexed offered first: the lower one must still displace it.
	f.Add([]byte{1, 0, 0, 247, 247, 248, 248}, uint8(1), uint64(0))
	long := make([]byte, 1+4*200)
	for i := range long {
		long[i] = byte(i*37) % 16
	}
	f.Add(long, uint8(10), uint64(0))
	f.Fuzz(func(t *testing.T, in []byte, pick uint8, bits uint64) {
		if len(in) < 2 {
			return
		}
		dim := 1 + int(in[0]%4)
		vals := make([]float64, 0, len(in)-1)
		for _, b := range in[1:] {
			vals = append(vals, compactCoord(b))
		}
		if len(vals) < 2*dim {
			return
		}
		q, data := vals[:dim], vals[dim:]
		data = data[:len(data)/dim*dim]
		n := len(data) / dim
		bound := math.Float64frombits(bits)
		if r := int(pick/3) % n; pick%3 == 1 {
			bound = sqDist(q, data[r*dim:][:dim])
		} else if pick%3 == 2 {
			bound = math.Nextafter(sqDist(q, data[r*dim:][:dim]), 0)
		}
		if math.IsNaN(bound) {
			bound = math.Inf(1)
		}
		// Every row once, rotated by pick and fed in pieces of 1 + pick%5
		// rows, so thresholds carry across calls.
		rows := allRows(n)
		rot := int(pick) % n
		rows = append(rows[rot:], rows[:rot]...)
		piece := 1 + int(pick)%5

		var ref TopKAcc
		ref.Reset(1)
		ref.Cap(bound)
		TopKRows(data, dim, q, rows, &ref)
		want := ref.Append(nil)

		srcs := []func(c *Compact){func(c *Compact) { c.Reset(nil, points.Q8Params{}, q, Bounds{}) }}
		if codes, par, ok := points.QuantizeQ8(data, dim); ok {
			if bnd := Q8Bounds(dim, par.ErrBound()); bnd.Valid() {
				srcs = append(srcs, func(c *Compact) { c.Reset(codes, par, q, bnd) })
			}
		}
		var c Compact
		for k, reset := range srcs {
			reset(&c)
			var acc TopKAcc
			acc.Reset(1)
			acc.Cap(bound)
			exact := 0
			for rest := rows; len(rest) > 0; {
				part := rest[:min(piece, len(rest))]
				rest = rest[len(part):]
				exact += TopKCompact(data, dim, q, &c, part, &acc)
			}
			got := acc.Append(nil)
			if len(got) != len(want) || (len(got) == 1 && (got[0].Row != want[0].Row || math.Float64bits(got[0].D2) != math.Float64bits(want[0].D2))) {
				t.Fatalf("source %d dim %d cap %v: TopKCompact holds %v, TopKRows %v", k, dim, bound, got, want)
			}
			if exact > n || (k == 0 && exact != n) {
				t.Fatalf("source %d dim %d: %d exact distances over %d rows", k, dim, exact, n)
			}
		}
	})
}
