package knnjoin_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knnjoin"
	"repro/internal/points"
)

// naiveKDist computes every point's k-distance by full scan, excluding the
// point itself.
func naiveKDist(ds *points.Dataset, k int) []float64 {
	out := make([]float64, ds.N())
	for i, p := range ds.Points {
		var d2s []float64
		for j, q := range ds.Points {
			if j == i {
				continue
			}
			var d2 float64
			for t := range p.Pos {
				d := p.Pos[t] - q.Pos[t]
				d2 += d * d
			}
			d2s = append(d2s, d2)
		}
		sort.Float64s(d2s)
		out[i] = math.Sqrt(d2s[k-1])
	}
	return out
}

func TestKDistancesMatchNaive(t *testing.T) {
	ds := dataset.Blobs("knn-kdist", 300, 2, 3, 100, 2.5, 51)
	kd, res, err := knnjoin.KDistances(context.Background(), localSession(), ds, 4, knnjoin.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveKDist(ds, 4)
	for i := range want {
		if kd[i] != want[i] {
			t.Fatalf("kdist[%d]: got %v want %v", i, kd[i], want[i])
		}
		if len(res.Neighbors[i]) != 4 {
			t.Fatalf("point %d kept %d neighbors after self-drop, want 4", i, len(res.Neighbors[i]))
		}
	}
}

// TestKDistancesMassDuplicates exercises the self-drop fallback: with many
// identical points the query's own zero-distance entry loses the ID
// tie-break and a surrogate zero entry must be dropped instead.
func TestKDistancesMassDuplicates(t *testing.T) {
	ds := &points.Dataset{Name: "dups"}
	for i := 0; i < 12; i++ {
		ds.Points = append(ds.Points, points.Point{ID: int32(i), Pos: points.Vector{1, 2}})
	}
	for i := 12; i < 20; i++ {
		ds.Points = append(ds.Points, points.Point{ID: int32(i), Pos: points.Vector{float64(i), -3}})
	}
	kd, _, err := knnjoin.KDistances(context.Background(), localSession(), ds, 3, knnjoin.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveKDist(ds, 3)
	for i := range want {
		if kd[i] != want[i] {
			t.Fatalf("kdist[%d]: got %v want %v", i, kd[i], want[i])
		}
	}
}

func TestOutliersFindPlanted(t *testing.T) {
	ds := dataset.Blobs("knn-outlier", 250, 2, 3, 60, 1.5, 61)
	// Plant two far-away singletons; renumber to keep IDs dense.
	ds.Points = append(ds.Points,
		points.Point{ID: int32(ds.N()), Pos: points.Vector{900, 900}},
		points.Point{ID: int32(ds.N() + 1), Pos: points.Vector{-950, 800}})
	ds.Labels = nil
	outs, _, err := knnjoin.Outliers(context.Background(), localSession(), ds, 3, 2, knnjoin.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outliers, want 2", len(outs))
	}
	got := map[int32]bool{outs[0].ID: true, outs[1].ID: true}
	if !got[int32(ds.N()-2)] || !got[int32(ds.N()-1)] {
		t.Fatalf("planted outliers not found: got %+v", outs)
	}
	if outs[0].KDist < outs[1].KDist {
		t.Fatalf("outliers not sorted descending: %+v", outs)
	}
}

func TestKDistanceProfileSuggestEps(t *testing.T) {
	ds := dataset.Blobs("knn-eps", 200, 2, 4, 80, 1.0, 71)
	ds.Points = append(ds.Points, points.Point{ID: int32(ds.N()), Pos: points.Vector{700, -700}})
	ds.Labels = nil
	prof, _, err := knnjoin.KDistanceProfile(context.Background(), localSession(), ds, 4, knnjoin.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Sorted) != ds.N() {
		t.Fatalf("profile has %d entries, want %d", len(prof.Sorted), ds.N())
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(prof.Sorted))) {
		t.Fatal("profile not sorted descending")
	}
	eps := prof.SuggestEps()
	// The planted singleton's k-distance dominates the curve; the knee must
	// land strictly below it and above zero.
	if !(eps > 0) || eps >= prof.Sorted[0] {
		t.Fatalf("suggested eps %v outside (0, %v)", eps, prof.Sorted[0])
	}
}

func TestScoreNearestCentroid(t *testing.T) {
	ds := dataset.Blobs("knn-score", 300, 2, 3, 90, 2.0, 81)
	cents := &points.Dataset{Name: "centroids", Points: []points.Point{
		{ID: 0, Pos: points.Vector{0, 0}},
		{ID: 1, Pos: points.Vector{50, 50}},
		{ID: 2, Pos: points.Vector{-40, 70}},
	}}
	assign, dist, _, err := knnjoin.ScoreNearestCentroid(context.Background(), localSession(), ds, cents, knnjoin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ds.Points {
		bestID, best2 := int32(-1), math.Inf(1)
		for _, c := range cents.Points {
			var d2 float64
			for t := range p.Pos {
				d := p.Pos[t] - c.Pos[t]
				d2 += d * d
			}
			if d2 < best2 {
				bestID, best2 = c.ID, d2
			}
		}
		if assign[i] != bestID {
			t.Fatalf("point %d assigned to %d, want %d", i, assign[i], bestID)
		}
		if dist[i] != math.Sqrt(best2) {
			t.Fatalf("point %d distance %v, want %v", i, dist[i], math.Sqrt(best2))
		}
	}
}
