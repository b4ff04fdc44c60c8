package tuning

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
)

func testModel(t *testing.T) (*Model, *dataset.DS) {
	t.Helper()
	ds := dataset.BigCross(3000, 7)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	return &Model{N: ds.N(), Dim: ds.Dim(), Dc: dc, Seed: 1, SampleSize: 1500}, ds
}

func TestEvaluateBasics(t *testing.T) {
	m, ds := testModel(t)
	w, err := lsh.SolveWidth(0.99, m.Dc, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Evaluate(ds, 10, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	if c.SumSq <= 0 || c.ShuffleBytes <= 0 || c.Distances <= 0 || c.Time <= 0 {
		t.Fatalf("degenerate cost: %+v", c)
	}
	if c.Accuracy < 0.99-1e-9 {
		t.Fatalf("accuracy %v below target", c.Accuracy)
	}
	// Σ N_k² is bounded by N² (single partition) and at least N (all
	// singletons).
	n := float64(m.N)
	if c.SumSq < n || c.SumSq > n*n {
		t.Fatalf("SumSq %v outside [N, N^2]", c.SumSq)
	}
}

func TestCostMonotoneInM(t *testing.T) {
	m, ds := testModel(t)
	w, err := lsh.SolveWidth(0.9, m.Dc, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	c5, err := m.Evaluate(ds, 5, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	c10, err := m.Evaluate(ds, 10, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	// Both costs grow with M at fixed (π, w): the shuffle linearly (Eq. 7),
	// the distance work by the pairs only the added layouts co-bucket — a
	// pair several layouts hold is evaluated once, so at most linearly.
	if c10.Distances <= c5.Distances || c10.ShuffleBytes <= c5.ShuffleBytes {
		t.Fatalf("cost not increasing in M: %+v vs %+v", c5, c10)
	}
	if got := c10.ShuffleBytes / c5.ShuffleBytes; got < 1.9 || got > 2.1 {
		t.Fatalf("shuffle cost ratio %v, want ~2", got)
	}
	if got := c10.Distances / c5.Distances; got > 2 {
		t.Fatalf("distance cost ratio %v, want at most 2", got)
	}
}

// Cost.Distances counts a pair once however many layouts co-bucket it: on
// the sample it is the brute-force count of pairs sharing any of M keys, and
// Eq. 8's Σ N_k² at M = 1.
func TestDistancesCountDistinctPairs(t *testing.T) {
	m, ds := testModel(t)
	m.SampleSize = 400
	sample := samplePoints(ds, m.SampleSize, m.Seed)
	for _, c := range []struct {
		M, Pi int
		W     float64
	}{{1, 3, m.Dc * 8}, {4, 2, m.Dc * 6}, {7, 3, m.Dc * 10}, {12, 1, m.Dc * 3}} {
		probe := lsh.NewLayouts(ds.Dim(), c.M, c.Pi, c.W, m.Seed+424243)
		keys := make([][]string, len(sample))
		for i, p := range sample {
			keys[i] = probe.Keys(p.Pos)
		}
		var want int64
		for i := range sample {
			for j := i + 1; j < len(sample); j++ {
				for l := 0; l < c.M; l++ {
					if keys[i][l] == keys[j][l] {
						want++
						break
					}
				}
			}
		}
		_, got := coBucketed(sample, ds.Dim(), c.M, c.Pi, c.W, m.Seed+424243)
		if got != want || want == 0 {
			t.Fatalf("M=%d π=%d: %d distinct co-bucketed pairs, brute force %d", c.M, c.Pi, got, want)
		}
		cost, err := m.Evaluate(ds, c.M, c.Pi, c.W)
		if err != nil {
			t.Fatal(err)
		}
		scale := float64(m.N) / float64(len(sample))
		if exp := float64(2*want+int64(len(sample))) * scale * scale; cost.Distances != exp {
			t.Fatalf("M=%d π=%d: Distances %v, want %v", c.M, c.Pi, cost.Distances, exp)
		}
		if c.M == 1 && cost.Distances != cost.SumSq {
			t.Fatalf("M=1: Distances %v, SumSq %v", cost.Distances, cost.SumSq)
		}
	}
}

func TestWiderHashCostsMore(t *testing.T) {
	// Larger w ⇒ coarser partitions ⇒ bigger Σ N_k² ⇒ more distance work.
	m, ds := testModel(t)
	narrow, err := m.Evaluate(ds, 10, 3, m.Dc*2)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := m.Evaluate(ds, 10, 3, m.Dc*50)
	if err != nil {
		t.Fatal(err)
	}
	if wide.SumSq <= narrow.SumSq {
		t.Fatalf("wider hash did not coarsen partitions: %v vs %v", wide.SumSq, narrow.SumSq)
	}
}

func TestRecommendReturnsFeasibleSorted(t *testing.T) {
	m, ds := testModel(t)
	costs, err := m.Recommend(ds, 0.99, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) == 0 {
		t.Fatal("no recommendations")
	}
	for i, c := range costs {
		if c.Accuracy < 0.99-1e-9 {
			t.Fatalf("candidate %d infeasible: %+v", i, c)
		}
		if i > 0 && costs[i].Time < costs[i-1].Time {
			t.Fatalf("not sorted by time at %d", i)
		}
	}
	// The paper's recommended ranges should be competitive: the winner's M
	// should not be an extreme value.
	best := costs[0]
	if best.M < 2 || best.Pi < 1 {
		t.Fatalf("nonsense winner: %+v", best)
	}
}

func TestRecommendErrors(t *testing.T) {
	m, ds := testModel(t)
	if _, err := m.Evaluate(ds, 0, 3, 1); err == nil {
		t.Fatal("want error for m=0")
	}
	if _, err := m.Evaluate(&dataset.DS{}, 1, 1, 1); err == nil {
		t.Fatal("want error for empty data set")
	}
}

func TestBalance(t *testing.T) {
	m, ds := testModel(t)
	fine, err := m.Balance(ds, 10, m.Dc)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := m.Balance(ds, 1, m.Dc*100)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Partitions <= coarse.Partitions {
		t.Fatalf("fine probe has %d partitions, coarse %d", fine.Partitions, coarse.Partitions)
	}
	if coarse.MaxShare <= fine.MaxShare {
		t.Fatalf("coarse probe should concentrate points: %v vs %v", coarse.MaxShare, fine.MaxShare)
	}
	if _, err := m.Balance(ds, 0, 1); err == nil {
		t.Fatal("want error for pi=0")
	}
}

func TestCalibrateMu(t *testing.T) {
	mu := CalibrateMu(57, 1)
	if mu < 0.001 || mu > 100 {
		t.Fatalf("calibrated mu = %v out of sane range", mu)
	}
	// Lower-dimensional distances are cheaper per evaluation, so the
	// shuffle/distance ratio should not shrink when dim shrinks.
	mu2 := CalibrateMu(2, 1)
	if mu2 < mu/4 {
		t.Fatalf("mu(2d)=%v implausibly below mu(57d)=%v", mu2, mu)
	}
}

// Model validation: the Section V cost model's predicted distance counts
// must track the distance counts LSH-DDP actually performs, configuration
// by configuration. (Predictions count ordered pairs co-bucketed by any of
// the M layouts, once each, as the pipeline's one pair pass — the ρ job —
// evaluates them, so we compare against that job's count and accept
// generous tolerance — the model's job is ranking configurations, not
// forecasting exact counts.)
func TestCostModelTracksMeasuredDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("model validation in -short mode")
	}
	ds := dataset.BigCross(3000, 7)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	m := &Model{N: ds.N(), Dim: ds.Dim(), Dc: dc, Seed: 1, SampleSize: 3000}

	type cfg struct{ M, Pi int }
	var predicted, measured []float64
	for _, c := range []cfg{{5, 3}, {10, 3}, {10, 6}} {
		w, err := lsh.SolveWidth(0.99, dc, c.Pi, c.M)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := m.Evaluate(ds, c.M, c.Pi, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
			Config: core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 2}, Dc: dc, Seed: 1},
			M:      c.M, Pi: c.Pi, W: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		predicted = append(predicted, cost.Distances)
		var rhoPairs int64
		for _, j := range res.Stats.Jobs {
			if j.Name == core.JobLSHRho {
				rhoPairs += j.Counters[mapreduce.CtrDistanceComputations]
			}
		}
		measured = append(measured, float64(rhoPairs))
	}
	for i := range predicted {
		ratio := predicted[i] / measured[i]
		if ratio < 0.2 || ratio > 5 {
			t.Fatalf("config %d: predicted %.3g vs measured %.3g (ratio %.2f)",
				i, predicted[i], measured[i], ratio)
		}
	}
	// Ranking property: if the model says config A costs more than B by
	// >2x, the measurement must agree on the direction.
	for i := range predicted {
		for j := range predicted {
			if predicted[i] > 2*predicted[j] && measured[i] < measured[j] {
				t.Fatalf("model ranking inverted between configs %d and %d", i, j)
			}
		}
	}
}
