package points

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestToFloat32(t *testing.T) {
	src := []float64{1.5, -3.25, 1e300, -1e308, 0, 1e-300}
	dst, maxAbs := ToFloat32(src)
	if maxAbs != 1e308 {
		t.Fatalf("maxAbs = %v, want 1e308", maxAbs)
	}
	if dst[0] != 1.5 || dst[1] != -3.25 {
		t.Fatalf("exact values changed: %v", dst[:2])
	}
	if !math.IsInf(float64(dst[2]), 1) || !math.IsInf(float64(dst[3]), -1) {
		t.Fatalf("overflow should convert to ±Inf, got %v %v", dst[2], dst[3])
	}
	if dst[5] != 0 {
		t.Fatalf("underflow should convert to 0, got %v", dst[5])
	}
}

func TestQuantizeQ8Residual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 2, 5, 8} {
		n := 200
		data := make([]float64, n*dim)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		codes, p, ok := QuantizeQ8(data, dim)
		if !ok {
			t.Fatalf("dim %d: quantize failed", dim)
		}
		if !p.Valid(dim) {
			t.Fatalf("dim %d: params invalid", dim)
		}
		for i := 0; i < len(data); i += dim {
			for d := 0; d < dim; d++ {
				got := p.Dequant(d, codes[i+d])
				// Half-step residual bound, with a little float64 slack.
				lim := p.Scale[d]/2*(1+1e-9) + 1e-300
				if diff := math.Abs(got - data[i+d]); diff > lim {
					t.Fatalf("dim %d row %d coord %d: residual %g > %g", dim, i/dim, d, diff, lim)
				}
			}
		}
		// ErrBound is 2x the worst-case Euclidean displacement.
		var worst float64
		for i := 0; i < len(data); i += dim {
			var s float64
			for d := 0; d < dim; d++ {
				r := p.Dequant(d, codes[i+d]) - data[i+d]
				s += r * r
			}
			if s > worst {
				worst = s
			}
		}
		if math.Sqrt(worst) > p.ErrBound()/2*(1+1e-9) {
			t.Fatalf("dim %d: displacement %g exceeds ErrBound/2 = %g", dim, math.Sqrt(worst), p.ErrBound()/2)
		}
	}
}

func TestQuantizeQ8ZeroSpread(t *testing.T) {
	data := []float64{3, -1, 3, -1, 3, -1} // every row identical
	codes, p, ok := QuantizeQ8(data, 2)
	if !ok {
		t.Fatal("quantize failed on constant data")
	}
	for i, c := range codes {
		if c != 0 {
			t.Fatalf("code[%d] = %d, want 0 for zero-spread dims", i, c)
		}
	}
	if p.Scale[0] != 0 || p.Scale[1] != 0 {
		t.Fatalf("scales %v, want zeros", p.Scale)
	}
	if p.Dequant(0, 0) != 3 || p.Dequant(1, 0) != -1 {
		t.Fatalf("dequant of constant data wrong: %v %v", p.Dequant(0, 0), p.Dequant(1, 0))
	}
	if p.ErrBound() != 0 {
		t.Fatalf("ErrBound = %v, want 0", p.ErrBound())
	}
}

func TestQuantizeQ8Rejects(t *testing.T) {
	if _, _, ok := QuantizeQ8([]float64{1, math.NaN()}, 2); ok {
		t.Fatal("accepted NaN")
	}
	if _, _, ok := QuantizeQ8([]float64{1, math.Inf(1)}, 2); ok {
		t.Fatal("accepted +Inf")
	}
	// Spread too large for a finite scale.
	if _, _, ok := QuantizeQ8([]float64{-math.MaxFloat64, math.MaxFloat64}, 1); ok {
		t.Fatal("accepted overflowing spread")
	}
	if _, _, ok := QuantizeQ8([]float64{1, 2, 3}, 2); ok {
		t.Fatal("accepted ragged block")
	}
	// Empty block quantizes fine (serving an empty model is rejected
	// elsewhere).
	if _, p, ok := QuantizeQ8(nil, 3); !ok || !p.Valid(3) {
		t.Fatal("rejected empty block")
	}
}

// TestQuantizeQ8WorkersAgree: the chunked code is the one-chunk code — the
// same bytes and the same parameters, signed zeros included — at row
// counts no worker count divides evenly, and a non-finite coordinate in the
// last chunk refuses the block as in the first.
func TestQuantizeQ8WorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 3
	for _, n := range []int{1, 2, 7, 101, 1000} {
		data := make([]float64, n*dim)
		for i := range data {
			data[i] = float64(rng.Intn(9)-4) * rng.Float64() * 100
			if rng.Intn(20) == 0 {
				data[i] = math.Copysign(0, -1)
			}
		}
		want, wp, ok := QuantizeQ8Workers(data, dim, 1)
		if !ok {
			t.Fatalf("n %d: one chunk refused the block", n)
		}
		for _, workers := range []int{2, 3, 8} {
			got, gp, ok := QuantizeQ8Workers(data, dim, workers)
			if !ok || !slices.Equal(got, want) || !sameBits(gp.Min, wp.Min) || !sameBits(gp.Scale, wp.Scale) {
				t.Fatalf("n %d workers %d: codes or parameters differ from one chunk's", n, workers)
			}
		}
		data[len(data)-1] = math.NaN()
		for _, workers := range []int{1, 2, 3, 8} {
			if _, _, ok := QuantizeQ8Workers(data, dim, workers); ok {
				t.Fatalf("n %d workers %d: accepted a NaN in the last row", n, workers)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestQ8ParamsValid(t *testing.T) {
	good := Q8Params{Min: []float64{0, 0}, Scale: []float64{1, 0}}
	if !good.Valid(2) {
		t.Fatal("good params rejected")
	}
	if good.Valid(3) {
		t.Fatal("dim mismatch accepted")
	}
	bad := Q8Params{Min: []float64{0, math.NaN()}, Scale: []float64{1, 1}}
	if bad.Valid(2) {
		t.Fatal("NaN min accepted")
	}
	neg := Q8Params{Min: []float64{0, 0}, Scale: []float64{1, -1}}
	if neg.Valid(2) {
		t.Fatal("negative scale accepted")
	}
}
