package points

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Dot returns the inner product of v and o.
func (v Vector) Dot(o Vector) float64 {
	if len(v) != len(o) {
		panic(fmt.Sprintf("points: dimension mismatch %d != %d", len(v), len(o)))
	}
	var s float64
	for i := range v {
		s += v[i] * o[i]
	}
	return s
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	o := Vector{4, 5, 6}
	if got := v.Dot(o); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	c := v.Clone()
	c.Add(o)
	if c[0] != 5 || c[1] != 7 || c[2] != 9 {
		t.Fatalf("Add = %v", c)
	}
	if v[0] != 1 {
		t.Fatal("Clone did not copy")
	}
	c.Scale(2)
	if c[0] != 10 || c[2] != 18 {
		t.Fatalf("Scale = %v", c)
	}
}

func TestVectorDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on dimension mismatch")
		}
	}()
	(Vector{1, 2}).Dot(Vector{1, 2, 3})
}

func TestDistances(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{3, 4}
	if got := Dist(a, b); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := SqDist(a, b); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
	if got := Dist(a, a); got != 0 {
		t.Fatalf("Dist(a,a) = %v", got)
	}
}

// Property: Dist is a metric on random vectors — symmetric, non-negative,
// triangle inequality.
func TestDistMetricProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Bound magnitudes to avoid overflow-driven false failures.
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 1e6)
		}
		a := Vector{clamp(ax), clamp(ay)}
		b := Vector{clamp(bx), clamp(by)}
		c := Vector{clamp(cx), clamp(cy)}
		dab, dba := Dist(a, b), Dist(b, a)
		dac, dcb := Dist(a, c), Dist(c, b)
		return dab == dba && dab >= 0 && dab <= dac+dcb+1e-9*(1+dab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetValidate(t *testing.T) {
	ds := FromVectors("ok", []Vector{{1, 2}, {3, 4}})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.Dim() != 2 {
		t.Fatalf("N=%d Dim=%d", ds.N(), ds.Dim())
	}

	bad := FromVectors("bad-id", []Vector{{1}, {2}})
	bad.Points[1].ID = 7
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for non-dense IDs")
	}

	mixed := FromVectors("bad-dim", []Vector{{1, 2}, {3}})
	if err := mixed.Validate(); err == nil {
		t.Fatal("want error for mixed dims")
	}

	lbl := FromVectors("bad-labels", []Vector{{1}, {2}})
	lbl.Labels = []int{0}
	if err := lbl.Validate(); err == nil {
		t.Fatal("want error for label count mismatch")
	}
}

func TestPercentileDistanceExhaustive(t *testing.T) {
	// 4 collinear points at 0,1,2,3: pairwise distances 1,1,1,2,2,3.
	ds := FromVectors("line", []Vector{{0}, {1}, {2}, {3}})
	if got := PercentileDistance(ds, 0.5, 1000, 1); got != 1 {
		t.Fatalf("median = %v, want 1", got)
	}
	if got := PercentileDistance(ds, 1.0, 1000, 1); got != 3 {
		t.Fatalf("max = %v, want 3", got)
	}
	if got := PercentileDistance(ds, 0.01, 1000, 1); got != 1 {
		t.Fatalf("1%% = %v, want 1", got)
	}
}

func TestPercentileDistanceSampled(t *testing.T) {
	// Sampling path: many points, cap pairs below total.
	rng := NewRand(3)
	vs := make([]Vector, 500)
	for i := range vs {
		vs[i] = Vector{rng.Float64() * 100, rng.Float64() * 100}
	}
	ds := FromVectors("big", vs)
	exact := PercentileDistance(ds, 0.5, 1<<30, 1)
	sampled := PercentileDistance(ds, 0.5, 5000, 1)
	if math.Abs(exact-sampled)/exact > 0.15 {
		t.Fatalf("sampled median %v too far from exact %v", sampled, exact)
	}
	// Deterministic for a fixed seed.
	if again := PercentileDistance(ds, 0.5, 5000, 1); again != sampled {
		t.Fatalf("sampling not deterministic: %v vs %v", again, sampled)
	}
}

func TestPercentileDistanceEdge(t *testing.T) {
	if got := PercentileDistance(FromVectors("one", []Vector{{1}}), 0.5, 10, 1); got != 0 {
		t.Fatalf("single point percentile = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for q out of range")
		}
	}()
	PercentileDistance(FromVectors("two", []Vector{{1}, {2}}), 0, 10, 1)
}

// TestSelectRankMatchesSort: the rank PercentileDistance reads is the
// element sort.Float64s plus the index gives, at every rank, on random,
// all-equal and duplicate-heavy inputs and on ones with NaN and ±Inf —
// which the sort puts first and at the ends.
func TestSelectRankMatchesSort(t *testing.T) {
	rng := NewRand(17)
	gen := func(n int, draw func() float64) []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = draw()
		}
		return a
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	cases := map[string][]float64{
		"one":        {2.5},
		"random":     gen(1000, rng.Float64),
		"all-equal":  gen(300, func() float64 { return 7 }),
		"duplicates": gen(1000, func() float64 { return float64(rng.Intn(4)) }),
		"non-finite": gen(1000, func() float64 {
			if rng.Intn(5) == 0 {
				return special[rng.Intn(len(special))]
			}
			return float64(rng.Intn(50)) * rng.Float64()
		}),
		"all-nan": gen(20, math.NaN),
	}
	for name, a := range cases {
		want := append([]float64(nil), a...)
		sort.Float64s(want)
		for k := range a {
			got := selectRank(append([]float64(nil), a...), k)
			if math.Float64bits(got) != math.Float64bits(want[k]) {
				t.Fatalf("%s: rank %d = %v, sort gives %v", name, k, got, want[k])
			}
		}
	}
}

func TestVectorString(t *testing.T) {
	if got := (Vector{1.5, -2}).String(); got != "(1.5,-2)" {
		t.Fatalf("String = %q", got)
	}
}
