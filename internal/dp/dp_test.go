package dp

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/kernels"
	"repro/internal/points"
)

// naive is an independent, maximally-simple DP implementation used as the
// oracle for the optimized one.
func naive(ds *points.Dataset, dc float64) *Result {
	n := ds.N()
	res := &Result{
		Rho:     make([]float64, n),
		Delta:   make([]float64, n),
		Upslope: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := points.Dist(ds.Points[i].Pos, ds.Points[j].Pos)
			if d < dc {
				res.Rho[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		best := math.Inf(1)
		var bestJ int32 = -1
		var maxD float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := points.Dist(ds.Points[i].Pos, ds.Points[j].Pos)
			if d > maxD {
				maxD = d
			}
			if DenserVals(res.Rho[j], res.Rho[i], int32(j), int32(i)) && d < best {
				best = d
				bestJ = int32(j)
			}
		}
		if bestJ == -1 {
			res.Delta[i] = maxD
		} else {
			res.Delta[i] = best
		}
		res.Upslope[i] = bestJ
		if res.Delta[i] > res.MaxDelta {
			res.MaxDelta = res.Delta[i]
		}
	}
	if n == 1 {
		res.Delta[0] = 0
	}
	return res
}

func randomSet(n, dim int, seed int64) *points.Dataset {
	rng := points.NewRand(seed)
	vs := make([]points.Vector, n)
	for i := range vs {
		v := make(points.Vector, dim)
		for j := range v {
			v[j] = rng.Float64() * 10
		}
		vs[i] = v
	}
	return points.FromVectors("rand", vs)
}

func assertMatches(t *testing.T, got, want *Result, label string) {
	t.Helper()
	for i := range want.Rho {
		if math.Abs(got.Rho[i]-want.Rho[i]) > 1e-9 {
			t.Fatalf("%s: rho[%d] = %v, want %v", label, i, got.Rho[i], want.Rho[i])
		}
		if math.Abs(got.Delta[i]-want.Delta[i]) > 1e-9 {
			t.Fatalf("%s: delta[%d] = %v, want %v", label, i, got.Delta[i], want.Delta[i])
		}
		if got.Upslope[i] != want.Upslope[i] {
			t.Fatalf("%s: upslope[%d] = %d, want %d", label, i, got.Upslope[i], want.Upslope[i])
		}
	}
}

func TestComputeMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := randomSet(150, 3, seed)
		dc := CutoffByPercentile(ds, 0.05, seed)
		got, err := Compute(ds, dc)
		if err != nil {
			t.Fatal(err)
		}
		assertMatches(t, got, naive(ds, dc), "cutoff")
	}
}

func TestDenserTotalOrder(t *testing.T) {
	rho := []float64{3, 1, 3, 2}
	// Equal rho: lower ID wins.
	if !Denser(rho, 0, 2) || Denser(rho, 2, 0) {
		t.Fatal("tie-break by ID broken")
	}
	if !Denser(rho, 0, 3) || Denser(rho, 1, 3) {
		t.Fatal("rho comparison broken")
	}
	// Denser defines a strict total order: exactly one of (i<j, j<i) holds
	// for i != j.
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 4; j++ {
			if i == j {
				continue
			}
			a, b := Denser(rho, i, j), Denser(rho, j, i)
			if a == b {
				t.Fatalf("order not strict at (%d,%d)", i, j)
			}
		}
	}
}

func TestAbsolutePeakInvariants(t *testing.T) {
	ds := randomSet(100, 2, 13)
	dc := CutoffByPercentile(ds, 0.1, 13)
	res, err := Compute(ds, dc)
	if err != nil {
		t.Fatal(err)
	}
	peaks := 0
	var peak int32
	for i, u := range res.Upslope {
		if u == -1 {
			peaks++
			peak = int32(i)
		}
	}
	if peaks != 1 {
		t.Fatalf("%d absolute peaks, want exactly 1", peaks)
	}
	// The peak is the densest point under the total order.
	for i := range res.Rho {
		if int32(i) != peak && Denser(res.Rho, int32(i), peak) {
			t.Fatalf("point %d denser than peak %d", i, peak)
		}
	}
	// Upslope points are strictly denser; assignment chains terminate.
	for i, u := range res.Upslope {
		if u == -1 {
			continue
		}
		if !Denser(res.Rho, u, int32(i)) {
			t.Fatalf("upslope %d of %d is not denser", u, i)
		}
	}
}

// Property: on random data, δ of every non-peak point is the distance to
// its upslope point, and no denser point is closer.
func TestDeltaOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		ds := randomSet(60, 2, seed)
		dc := CutoffByPercentile(ds, 0.1, seed)
		res, err := Compute(ds, dc)
		if err != nil {
			return false
		}
		for i := range res.Rho {
			u := res.Upslope[i]
			if u == -1 {
				continue
			}
			if math.Abs(points.Dist(ds.Points[i].Pos, ds.Points[u].Pos)-res.Delta[i]) > 1e-9 {
				return false
			}
			for j := range res.Rho {
				if int32(j) == int32(i) || !Denser(res.Rho, int32(j), int32(i)) {
					continue
				}
				if points.Dist(ds.Points[i].Pos, ds.Points[j].Pos) < res.Delta[i]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeEdgeCases(t *testing.T) {
	for _, dc := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Compute(points.FromVectors("x", []points.Vector{{1}}), dc); err == nil {
			t.Fatalf("want error for dc %v", dc)
		}
	}
	if _, err := Compute(points.FromVectors("0-d", []points.Vector{{}, {}}), 1); err == nil {
		t.Fatal("want error for points without coordinates")
	}
	empty, err := Compute(&points.Dataset{}, 1)
	if err != nil || len(empty.Rho) != 0 {
		t.Fatalf("empty dataset: %v %v", empty, err)
	}
	one, err := Compute(points.FromVectors("one", []points.Vector{{5, 5}}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Delta[0] != 0 || one.Upslope[0] != -1 {
		t.Fatalf("single point: delta=%v upslope=%d", one.Delta[0], one.Upslope[0])
	}
}

func TestCutoffByPercentileMatchesSortedPairs(t *testing.T) {
	ds := randomSet(80, 2, 17)
	var dists []float64
	for i := 0; i < ds.N(); i++ {
		for j := i + 1; j < ds.N(); j++ {
			dists = append(dists, points.Dist(ds.Points[i].Pos, ds.Points[j].Pos))
		}
	}
	sort.Float64s(dists)
	want := dists[int(0.02*float64(len(dists)))-1]
	if got := CutoffByPercentile(ds, 0.02, 1); got != want {
		t.Fatalf("dc = %v, want %v", got, want)
	}
}

// rhoPass runs Compute's ρ pass on ds and returns its densities and the
// reference: the cutoff count over every pair.
func rhoPass(ds *points.Dataset, dc float64) (got, want []float64) {
	got, want = make([]float64, ds.N()), make([]float64, ds.N())
	rhoCutoff(ds, dc, got)
	for i := range ds.Points {
		for j := i + 1; j < ds.N(); j++ {
			if points.SqDist(ds.Points[i].Pos, ds.Points[j].Pos) < dc*dc {
				want[i]++
				want[j]++
			}
		}
	}
	return got, want
}

// walkedRows returns the rows the ρ pass's walks evaluate: each point's
// kernels.Within query is one TopKLeaves walk capped at d_c² and never fed,
// which computes the distance of every row of each leaf it opens.
func walkedRows(ds *points.Dataset, dc float64) (rows int64) {
	var data []float64
	for _, p := range ds.Points {
		data = append(data, p.Pos...)
	}
	var tree kernels.BoxTree
	tree.Build(data, ds.Dim())
	var acc kernels.TopKAcc
	for _, p := range ds.Points {
		acc.Reset(1)
		acc.Cap(dc * dc)
		rows += int64(kernels.TopKLeaves(&tree, data, p.Pos, nil, func([]int32) []int32 { return nil }, &acc).Tested)
	}
	return rows
}

// TestGridIndexIsExact holds the box-tree ρ pass to the all-pairs count at
// every dimension, on points either side of zero and on a lattice stored
// twice with d_c its spacing, so rows exactly d_c apart do not count and
// duplicates do.
func TestGridIndexIsExact(t *testing.T) {
	for _, dim := range []int{1, 2, 4, 6, 8, 57} {
		ds := randomSet(300, dim, int64(20+dim))
		dc := CutoffByPercentile(ds, 0.03, 1)
		if got, want := rhoPass(ds, dc); !slices.Equal(got, want) {
			t.Fatalf("dim %d: tree ρ %v, all pairs %v", dim, got, want)
		}
	}
	neg := points.FromVectors("neg", []points.Vector{{-0.1, -0.1}, {0.1, 0.1}, {-1.5, 2.5}, {0, 0}, {-0.5, 0}, {-0.49, 0}})
	var lattice []points.Vector
	for range 2 {
		for x := range 16 {
			for y := range 12 {
				lattice = append(lattice, points.Vector{float64(x), float64(y)})
			}
		}
	}
	for _, c := range []struct {
		ds *points.Dataset
		dc float64
	}{{neg, 0.5}, {points.FromVectors("lattice", lattice), 1}} {
		if got, want := rhoPass(c.ds, c.dc); !slices.Equal(got, want) {
			t.Fatalf("%s: tree ρ %v, all pairs %v", c.ds.Name, got, want)
		}
	}
}

// TestGridIndexSavesDistances: the ρ pass's walks evaluate under a tenth
// of all n² (point, row) pairs on uniform 2-d points and on 8-d blobs. (On
// uniform 8-d points at this n, d_c reaches across most of the box and the
// walks evaluate ≈ 46 % of the pairs; no index prunes there.)
func TestGridIndexSavesDistances(t *testing.T) {
	for _, ds := range []*points.Dataset{
		randomSet(2000, 2, 23),
		dataset.Blobs("blobs", 2000, 8, 16, 100, 2.5, 23),
	} {
		dc := CutoffByPercentile(ds, 0.01, 1)
		n := int64(ds.N())
		if rows := walkedRows(ds, dc); rows*10 >= n*n {
			t.Fatalf("%s dim %d: the ρ pass evaluated %d of %d pairs", ds.Name, ds.Dim(), rows, n*n)
		}
	}
}
