package decision

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/points"
)

func mustGraph(t *testing.T, rho, delta []float64, upslope []int32) *Graph {
	t.Helper()
	g, err := NewGraph(rho, delta, upslope)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraphValidates(t *testing.T) {
	if _, err := NewGraph([]float64{1}, []float64{1, 2}, []int32{0}); err == nil {
		t.Fatal("want error on mismatched lengths")
	}
}

// TestRectify: NewGraph replaces every non-finite δ with the maximum
// finite δ, 1 when none is finite, and leaves its argument untouched.
func TestRectify(t *testing.T) {
	delta := []float64{5, math.Inf(1), 2, math.NaN()}
	g := mustGraph(t, []float64{1, 2, 3, 4}, delta, []int32{-1, -1, 0, 1})
	if want := []float64{5, 5, 2, 5}; !slices.Equal(g.Delta, want) {
		t.Fatalf("rectified δ = %v, want %v", g.Delta, want)
	}
	if !math.IsInf(delta[1], 1) || !math.IsNaN(delta[3]) {
		t.Fatalf("NewGraph rewrote its argument: %v", delta)
	}
	if g2 := mustGraph(t, []float64{1}, []float64{math.Inf(1)}, []int32{-1}); g2.Delta[0] != 1 {
		t.Fatalf("all-inf graph rectifies to %v, want 1", g2.Delta[0])
	}
}

func TestSelectBox(t *testing.T) {
	g := mustGraph(t,
		[]float64{10, 5, 20, 1},
		[]float64{8, 9, 2, 10},
		[]int32{-1, 0, 0, 0})
	got := g.SelectBox(4, 7)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("SelectBox = %v", got)
	}
	if got := g.SelectBox(100, 100); got != nil {
		t.Fatalf("empty box = %v", got)
	}
}

func TestSelectTopK(t *testing.T) {
	g := mustGraph(t,
		[]float64{10, 5, 20, 1}, // gamma: 80, 45, 40, 10
		[]float64{8, 9, 2, 10},
		[]int32{-1, 0, 0, 0})
	got := g.SelectTopK(2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("top-2 = %v", got)
	}
	if got := g.SelectTopK(100); len(got) != 4 {
		t.Fatalf("top-100 on 4 points = %v", got)
	}
	if got := g.SelectTopK(0); got != nil {
		t.Fatalf("top-0 = %v", got)
	}
	// Gamma tie: smaller ID wins.
	tie := mustGraph(t, []float64{2, 2, 2}, []float64{3, 3, 1}, []int32{-1, 0, 0})
	if got := tie.SelectTopK(1); got[0] != 0 {
		t.Fatalf("tie winner = %v", got)
	}
}

// chainedDataset builds a 1-D set with known structure: two clusters with
// peaks at x=0 and x=10.
func chainedDataset() (*points.Dataset, *Graph) {
	// Points: 0:(0) 1:(1) 2:(2) 3:(10) 4:(11)
	ds := points.FromVectors("chain", []points.Vector{{0}, {1}, {2}, {10}, {11}})
	rho := []float64{5, 4, 3, 5, 4} // point 0 and 3 tie; ID order makes 0 the global peak
	delta := []float64{11, 1, 1, 8, 1}
	up := []int32{-1, 0, 1, 0, 3}
	g, _ := NewGraph(rho, delta, up)
	return ds, g
}

func TestAssignChains(t *testing.T) {
	ds, g := chainedDataset()
	labels, err := g.Assign(ds, []int32{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 0, 0, 1, 1}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestAssignFallbackToNearestPeak(t *testing.T) {
	// The absolute peak is NOT selected: it must fall back to the nearest
	// selected peak by distance.
	ds, g := chainedDataset()
	labels, err := g.Assign(ds, []int32{1, 3}) // select points 1 and 3
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 0 { // point 0 at x=0 is nearest to peak 1 at x=1
		t.Fatalf("peak fallback label = %d", labels[0])
	}
	if labels[4] != 1 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestAssignErrors(t *testing.T) {
	ds, g := chainedDataset()
	if _, err := g.Assign(ds, nil); err == nil {
		t.Fatal("want error for no peaks")
	}
	if _, err := g.Assign(ds, []int32{99}); err == nil {
		t.Fatal("want error for out-of-range peak")
	}
	short := points.FromVectors("short", []points.Vector{{0}})
	if _, err := g.Assign(short, []int32{0}); err == nil {
		t.Fatal("want error for dataset length mismatch")
	}
}

func TestAssignAllPointsLabeled(t *testing.T) {
	// Larger randomized chain: every point must get a label in range.
	rng := points.NewRand(3)
	n := 200
	vs := make([]points.Vector, n)
	for i := range vs {
		vs[i] = points.Vector{rng.Float64() * 100, rng.Float64() * 100}
	}
	ds := points.FromVectors("rand", vs)
	rho := make([]float64, n)
	delta := make([]float64, n)
	up := make([]int32, n)
	for i := range rho {
		rho[i] = rng.Float64() * 50
		delta[i] = rng.Float64() * 5
		up[i] = -1
	}
	// Build a valid upslope structure: point with next-higher rho.
	type byRho struct {
		id  int32
		rho float64
	}
	order := make([]byRho, n)
	for i := range order {
		order[i] = byRho{int32(i), rho[i]}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if order[j].rho > order[i].rho {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for oi := 1; oi < n; oi++ {
		up[order[oi].id] = order[oi-1].id
	}
	g := mustGraph(t, rho, delta, up)
	labels, err := g.Assign(ds, []int32{order[0].id, order[1].id, order[2].id})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l < 0 || l > 2 {
			t.Fatalf("label[%d] = %d", i, l)
		}
	}
}

func TestGamma(t *testing.T) {
	g := mustGraph(t, []float64{2, 3}, []float64{4, 5}, []int32{-1, 0})
	gamma := g.Gamma()
	if gamma[0] != 8 || gamma[1] != 15 {
		t.Fatalf("gamma = %v", gamma)
	}
}

func TestRender(t *testing.T) {
	g := mustGraph(t,
		[]float64{1, 10, 5},
		[]float64{1, 9, 2},
		[]int32{1, -1, 1})
	s := g.Render(40, 10, []int32{1})
	if !strings.Contains(s, "P") {
		t.Fatalf("no peak marker:\n%s", s)
	}
	if !strings.Contains(s, "rho (max 10)") {
		t.Fatalf("missing axis label:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 12 { // title + 10 rows + axis
		t.Fatalf("render has %d lines:\n%s", len(lines), s)
	}
	// Tiny dimensions are clamped, not crashed.
	_ = g.Render(1, 1, nil)
}

func TestSuggestK(t *testing.T) {
	// 3 screaming peaks over a flat crowd.
	n := 100
	rho := make([]float64, n)
	delta := make([]float64, n)
	up := make([]int32, n)
	for i := range rho {
		rho[i], delta[i], up[i] = 1, 0.5, int32((i+1)%n)
	}
	for _, p := range []int{5, 40, 77} {
		rho[p], delta[p], up[p] = 30, 20, -1
	}
	g := mustGraph(t, rho, delta, up)
	if k := g.SuggestK(20); k != 3 {
		t.Fatalf("SuggestK = %d, want 3", k)
	}
	// Degenerate graphs do not panic.
	empty := mustGraph(t, nil, nil, nil)
	if k := empty.SuggestK(5); k != 0 {
		t.Fatalf("empty SuggestK = %d", k)
	}
	one := mustGraph(t, []float64{1}, []float64{1}, []int32{-1})
	if k := one.SuggestK(5); k < 1 {
		t.Fatalf("single-point SuggestK = %d", k)
	}
}

func TestSuggestKOnRealisticGraph(t *testing.T) {
	// Build a graph resembling a 4-cluster DP output: densities fall off
	// within clusters, peaks have both high rho and high delta.
	rng := points.NewRand(9)
	var rho, delta []float64
	var up []int32
	for c := 0; c < 4; c++ {
		base := int32(len(rho))
		rho = append(rho, 50+float64(c))
		delta = append(delta, 100)
		up = append(up, -1)
		for i := 0; i < 60; i++ {
			rho = append(rho, 5+rng.Float64()*20)
			delta = append(delta, 0.2+rng.Float64())
			up = append(up, base)
		}
	}
	g := mustGraph(t, rho, delta, up)
	if k := g.SuggestK(15); k != 4 {
		t.Fatalf("SuggestK = %d, want 4", k)
	}
}

func TestRenderSVG(t *testing.T) {
	g := mustGraph(t,
		[]float64{1, 10, 5, 3},
		[]float64{1, 9, 2, math.Inf(1)},
		[]int32{1, -1, 1, -1})
	var buf strings.Builder
	if err := g.RenderSVG(&buf, 400, 300, []int32{1}); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	for _, want := range []string{"<svg", "</svg>", "circle", "rho", "delta", `fill="#c0392b"`} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q:\n%s", want, svg[:200])
		}
	}
	// One red peak + label, three grey dots.
	if got := strings.Count(svg, `fill="#888"`); got != 3 {
		t.Fatalf("grey dots = %d, want 3", got)
	}
	// Out-of-range peak errors.
	if err := g.RenderSVG(&buf, 400, 300, []int32{99}); err == nil {
		t.Fatal("want error for out-of-range peak")
	}
	// Tiny canvas is clamped, not broken.
	if err := g.RenderSVG(&buf, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
}
