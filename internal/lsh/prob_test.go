package lsh

import (
	"math"
	"testing"

	"repro/internal/points"
)

// collisionProb is p(d, w) = Pr[h(p_i)=h(p_j)] for two points at distance d
// under one p-stable hash of width w (Datar et al.; the paper's Lemma 3):
//
//	p(d,w) = 2Φ(w/d) − 1 − (2d/(√(2π) w))·(1 − e^{−w²/(2d²)})
//
// with Φ the N(0,1) CDF. It is monotonically decreasing in d and increasing
// in w; the hash is checked against it.
func collisionProb(d, w float64) float64 {
	if d <= 0 {
		return 1
	}
	r := w / d
	phi := 0.5 * math.Erfc(-r/math.Sqrt2)
	return 2*phi - 1 - 2/(math.Sqrt(2*math.Pi)*r)*(1-math.Exp(-r*r/2))
}

func TestCollisionProbShape(t *testing.T) {
	if got := collisionProb(0, 5); got != 1 {
		t.Fatalf("p(0) = %v", got)
	}
	// Monotone decreasing in d, increasing in w.
	prev := 1.0
	for _, d := range []float64{0.1, 0.5, 1, 2, 5, 10, 50} {
		p := collisionProb(d, 4)
		if p <= 0 || p >= 1 {
			t.Fatalf("p(%v, 4) = %v out of (0,1)", d, p)
		}
		if p >= prev {
			t.Fatalf("p not decreasing at d=%v: %v >= %v", d, p, prev)
		}
		prev = p
	}
	if collisionProb(2, 8) <= collisionProb(2, 2) {
		t.Fatal("p not increasing in w")
	}
}

func TestAllNeighborsProbLB(t *testing.T) {
	if got := AllNeighborsProbLB(0, 3); got != 1 {
		t.Fatalf("P_rho(0) = %v", got)
	}
	// Paper's closed form: 1 - 4 dc / (sqrt(2*pi) w).
	dc, w := 1.0, 10.0
	want := 1 - 4*dc/(math.Sqrt(2*math.Pi)*w)
	if got := AllNeighborsProbLB(dc, w); math.Abs(got-want) > 1e-12 {
		t.Fatalf("P_rho = %v, want %v", got, want)
	}
	// Clamped to zero when the bound goes negative.
	if got := AllNeighborsProbLB(100, 1); got != 0 {
		t.Fatalf("clamped P_rho = %v", got)
	}
}

// The exact all-neighbours probability, the integrand clamped at zero, has
// the closed form of collisionProb with d → 2 d_c: it must equal the
// clamped integral ∫₀^{w/2dc} (1 − 2 dc x / w) f(x) dx, checked by numeric
// quadrature, and must dominate the paper's lower bound.
func TestAllNeighborsProbExactVsQuadrature(t *testing.T) {
	halfNormal := func(x float64) float64 {
		return math.Sqrt(2/math.Pi) * math.Exp(-x*x/2)
	}
	for _, tc := range []struct{ dc, w float64 }{
		{1, 10}, {1, 4}, {1, 2}, {2, 5}, {0.3, 1},
	} {
		upper := tc.w / (2 * tc.dc)
		const steps = 200_000
		h := upper / steps
		var integral float64
		for i := 0; i < steps; i++ {
			x := (float64(i) + 0.5) * h
			integral += (1 - 2*tc.dc*x/tc.w) * halfNormal(x) * h
		}
		got := collisionProb(2*tc.dc, tc.w)
		if math.Abs(got-integral) > 1e-4 {
			t.Fatalf("dc=%v w=%v: exact %v vs quadrature %v", tc.dc, tc.w, got, integral)
		}
		if lb := AllNeighborsProbLB(tc.dc, tc.w); got < lb-1e-12 {
			t.Fatalf("dc=%v w=%v: exact %v below lower bound %v", tc.dc, tc.w, got, lb)
		}
	}
}

func TestLayoutAccuracy(t *testing.T) {
	// Theorem 1 algebra on known values: P=0.9, pi=2, M=3:
	// 1 - (1 - 0.81)^3 = 1 - 0.19^3.
	want := 1 - math.Pow(1-0.81, 3)
	if got := LayoutAccuracy(0.9, 2, 3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("accuracy = %v, want %v", got, want)
	}
	// More layouts help; more functions per group hurt.
	if LayoutAccuracy(0.9, 3, 10) <= LayoutAccuracy(0.9, 3, 2) {
		t.Fatal("accuracy not increasing in M")
	}
	if LayoutAccuracy(0.9, 10, 5) >= LayoutAccuracy(0.9, 2, 5) {
		t.Fatal("accuracy not decreasing in pi")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for probability out of range")
		}
	}()
	LayoutAccuracy(1.5, 1, 1)
}

func TestSolveWidth(t *testing.T) {
	dc := 1.5
	for _, tc := range []struct {
		acc   float64
		pi, m int
	}{
		{0.9, 3, 10}, {0.99, 3, 10}, {0.99, 10, 20}, {0.5, 1, 1}, {0.999, 5, 30},
	} {
		w, err := SolveWidth(tc.acc, dc, tc.pi, tc.m)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got := ExpectedAccuracy(w, dc, tc.pi, tc.m); got < tc.acc-1e-9 {
			t.Fatalf("%+v: w=%v gives accuracy %v < %v", tc, w, got, tc.acc)
		}
		// Minimality: 1% narrower must violate the target.
		if got := ExpectedAccuracy(w*0.99, dc, tc.pi, tc.m); got >= tc.acc {
			t.Fatalf("%+v: w=%v not minimal (0.99w gives %v)", tc, w, got)
		}
	}
}

func TestSolveWidthScalesWithDc(t *testing.T) {
	// The solved width is proportional to d_c (the formula depends only on
	// dc/w).
	w1, err := SolveWidth(0.95, 1, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := SolveWidth(0.95, 7, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w2/w1-7) > 1e-6 {
		t.Fatalf("w(7dc)/w(dc) = %v, want 7", w2/w1)
	}
}

func TestSolveWidthErrors(t *testing.T) {
	if _, err := SolveWidth(0, 1, 3, 10); err == nil {
		t.Fatal("want error for accuracy 0")
	}
	if _, err := SolveWidth(1, 1, 3, 10); err == nil {
		t.Fatal("want error for accuracy 1")
	}
	if _, err := SolveWidth(0.9, 0, 3, 10); err == nil {
		t.Fatal("want error for dc 0")
	}
	if _, err := SolveWidth(0.9, 1, 0, 10); err == nil {
		t.Fatal("want error for pi 0")
	}
}

func TestRequiredPerFuncProb(t *testing.T) {
	// Inverse of Theorem 1: plugging the result back reproduces the target.
	for _, tc := range []struct {
		acc   float64
		pi, m int
	}{
		{0.99, 3, 10}, {0.9, 5, 5}, {0.5, 1, 1},
	} {
		p := RequiredPerFuncProb(tc.acc, tc.pi, tc.m)
		if got := LayoutAccuracy(p, tc.pi, tc.m); math.Abs(got-tc.acc) > 1e-9 {
			t.Fatalf("%+v: inverse broken, got %v", tc, got)
		}
	}
	if RequiredPerFuncProb(0, 3, 10) != 0 || RequiredPerFuncProb(1, 3, 10) != 1 {
		t.Fatal("edge values wrong")
	}
}

// Empirical check of Theorem 1's direction on real data: the realized
// fraction of points whose d_c-neighbourhood stays intact under one layout
// should be at least P_ρ(w,dc)^π within sampling noise... the paper's
// Lemma 1 uses a single-Gaussian simplification, so we only require the
// qualitative ordering across widths.
func TestLayoutNeighborhoodIntegrityOrdering(t *testing.T) {
	rng := points.NewRand(31)
	n := 400
	pts := make([]points.Vector, n)
	for i := range pts {
		pts[i] = points.Vector{rng.Float64() * 20, rng.Float64() * 20}
	}
	dc := 1.0
	intact := func(w float64) float64 {
		l := NewLayouts(2, 1, 3, w, 77)
		keys := make([]string, n)
		for i := range pts {
			keys[i] = l.Keys(pts[i])[0]
		}
		ok := 0
		for i := range pts {
			all := true
			for j := range pts {
				if i == j {
					continue
				}
				if points.Dist(pts[i], pts[j]) < dc && keys[i] != keys[j] {
					all = false
					break
				}
			}
			if all {
				ok++
			}
		}
		return float64(ok) / float64(n)
	}
	small, large := intact(2), intact(20)
	if large <= small {
		t.Fatalf("wider hash did not preserve more neighbourhoods: w=2 %v vs w=20 %v", small, large)
	}
}
