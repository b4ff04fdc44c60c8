package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// testEngine keeps unit-test runs deterministic and modest.
func testEngine() mapreduce.Engine {
	return &mapreduce.LocalEngine{Parallelism: 4}
}

// exactReference computes sequential DP for comparison.
func exactReference(t *testing.T, ds *points.Dataset, dc float64) *dp.Result {
	t.Helper()
	ref, err := dp.Compute(ds, dc)
	if err != nil {
		t.Fatalf("dp.Compute: %v", err)
	}
	return ref
}

func TestBasicDDPMatchesSequentialDP(t *testing.T) {
	ds := dataset.Blobs("basic-vs-dp", 400, 3, 4, 100, 4, 7)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref := exactReference(t, ds, dc)

	for _, blockSize := range []int{50, 97, 400, 1000} {
		res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
			Config:    Config{Engine: testEngine(), Dc: dc},
			BlockSize: blockSize,
		})
		if err != nil {
			t.Fatalf("blockSize=%d: %v", blockSize, err)
		}
		for i := range ref.Rho {
			if res.Rho[i] != ref.Rho[i] {
				t.Fatalf("blockSize=%d: rho[%d] = %v, want %v", blockSize, i, res.Rho[i], ref.Rho[i])
			}
			if math.Abs(res.Delta[i]-ref.Delta[i]) > 1e-9 {
				t.Fatalf("blockSize=%d: delta[%d] = %v, want %v", blockSize, i, res.Delta[i], ref.Delta[i])
			}
			if res.Upslope[i] != ref.Upslope[i] {
				t.Fatalf("blockSize=%d: upslope[%d] = %d, want %d (rho=%v delta=%v)",
					blockSize, i, res.Upslope[i], ref.Upslope[i], ref.Rho[i], ref.Delta[i])
			}
		}
	}
}

func TestBasicDDPDistanceCount(t *testing.T) {
	ds := dataset.Blobs("basic-cost", 300, 2, 3, 50, 2, 3)
	n := int64(ds.N())
	res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config:    Config{Engine: testEngine(), Dc: 1.5},
		BlockSize: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ρ job and δ job each evaluate every unordered pair exactly once.
	want := 2 * (n * (n - 1) / 2)
	if res.Stats.DistanceComputations != want {
		t.Fatalf("distance computations = %d, want %d", res.Stats.DistanceComputations, want)
	}
}

func TestBasicDDPAutoDc(t *testing.T) {
	ds := dataset.Blobs("basic-autodc", 500, 2, 3, 50, 2, 11)
	res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config: Config{Engine: testEngine(), Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Dc <= 0 {
		t.Fatalf("auto d_c = %v, want positive", res.Stats.Dc)
	}
	// The 2% quantile of pair distances must be well below the diameter.
	var diam float64
	for i := range ds.Points {
		for j := range ds.Points[:i] {
			diam = max(diam, points.Dist(ds.Points[i].Pos, ds.Points[j].Pos))
		}
	}
	if res.Stats.Dc >= diam {
		t.Fatalf("auto d_c %v not below diameter %v", res.Stats.Dc, diam)
	}
}

func TestBasicDDPAbsolutePeak(t *testing.T) {
	ds := dataset.Blobs("basic-peak", 200, 2, 1, 10, 1, 2)
	dc := dp.CutoffByPercentile(ds, 0.05, 1)
	res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config:    Config{Engine: testEngine(), Dc: dc},
		BlockSize: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one point has no upslope, and its δ is the max distance from
	// it to any other point.
	peak := -1
	for i, u := range res.Upslope {
		if u == -1 {
			if peak != -1 {
				t.Fatalf("two absolute peaks: %d and %d", peak, i)
			}
			peak = i
		}
	}
	if peak == -1 {
		t.Fatal("no absolute peak found")
	}
	var maxD float64
	for j := range ds.Points {
		if j == peak {
			continue
		}
		if d := points.Dist(ds.Points[peak].Pos, ds.Points[j].Pos); d > maxD {
			maxD = d
		}
	}
	if math.Abs(res.Delta[peak]-maxD) > 1e-9 {
		t.Fatalf("peak delta = %v, want max distance %v", res.Delta[peak], maxD)
	}
}

func TestBasicDDPClusterRecovery(t *testing.T) {
	ds := dataset.Blobs("basic-clusters", 600, 2, 4, 200, 3, 13)
	res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config: Config{Engine: testEngine(), Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	peaks, labels, err := res.Cluster(ds, SelectTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 4 {
		t.Fatalf("selected %d peaks, want 4", len(peaks))
	}
	// Each recovered cluster should be label-pure w.r.t. the generator:
	// count the majority ground-truth label per cluster.
	agree := 0
	for c := 0; c < 4; c++ {
		counts := map[int]int{}
		for i, l := range labels {
			if int(l) == c {
				counts[ds.Labels[i]]++
			}
		}
		best := 0
		total := 0
		for _, n := range counts {
			total += n
			if n > best {
				best = n
			}
		}
		if total == 0 {
			t.Fatalf("cluster %d is empty", c)
		}
		agree += best
	}
	purity := float64(agree) / float64(ds.N())
	if purity < 0.95 {
		t.Fatalf("cluster purity %.3f, want >= 0.95", purity)
	}
}

func TestBasicDDPErrors(t *testing.T) {
	tiny := points.FromVectors("tiny", []points.Vector{{0, 0}})
	if _, err := RunBasicDDP(context.Background(), tiny, BasicConfig{Config: Config{Engine: testEngine()}}); err == nil {
		t.Fatal("want error for single-point data set")
	}
	// Degenerate data (all identical points) cannot produce a positive d_c.
	same := points.FromVectors("same", []points.Vector{{1, 1}, {1, 1}, {1, 1}, {1, 1}})
	if _, err := RunBasicDDP(context.Background(), same, BasicConfig{Config: Config{Engine: testEngine()}}); err == nil {
		t.Fatal("want error for degenerate data set")
	}
}

// TestNegativeParametersRefused: 0 asks a pipeline for its default, and a
// negative or non-finite knob is an error, not a second spelling of 0.
func TestNegativeParametersRefused(t *testing.T) {
	ds := dataset.Blobs("negative-knobs", 200, 2, 3, 50, 3, 1)
	base := Config{Engine: testEngine(), Seed: 1}
	ctx := context.Background()
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"lsh accuracy", func() error {
			_, err := RunLSHDDP(ctx, ds, LSHConfig{Config: base, Accuracy: -0.5})
			return err
		}},
		{"lsh M", func() error { _, err := RunLSHDDP(ctx, ds, LSHConfig{Config: base, M: -2}); return err }},
		{"lsh pi", func() error { _, err := RunLSHDDP(ctx, ds, LSHConfig{Config: base, Pi: -1}); return err }},
		{"lsh W", func() error { _, err := RunLSHDDP(ctx, ds, LSHConfig{Config: base, W: -4}); return err }},
		{"lsh dc", func() error {
			_, err := RunLSHDDP(ctx, ds, LSHConfig{Config: Config{Engine: testEngine(), Dc: -1}})
			return err
		}},
		{"basic block", func() error { _, err := RunBasicDDP(ctx, ds, BasicConfig{Config: base, BlockSize: -5}); return err }},
		{"basic dc", func() error {
			_, err := RunBasicDDP(ctx, ds, BasicConfig{Config: Config{Engine: testEngine(), Dc: -1}})
			return err
		}},
		{"lsh accuracy NaN", func() error {
			_, err := RunLSHDDP(ctx, ds, LSHConfig{Config: base, Accuracy: nan})
			return err
		}},
		{"lsh W NaN", func() error { _, err := RunLSHDDP(ctx, ds, LSHConfig{Config: base, W: nan}); return err }},
		{"lsh W Inf", func() error { _, err := RunLSHDDP(ctx, ds, LSHConfig{Config: base, W: inf}); return err }},
		{"lsh dc NaN", func() error {
			_, err := RunLSHDDP(ctx, ds, LSHConfig{Config: Config{Engine: testEngine(), Dc: nan}})
			return err
		}},
		{"lsh dc Inf", func() error {
			_, err := RunLSHDDP(ctx, ds, LSHConfig{Config: Config{Engine: testEngine(), Dc: inf}})
			return err
		}},
		{"basic dc NaN", func() error {
			_, err := RunBasicDDP(ctx, ds, BasicConfig{Config: Config{Engine: testEngine(), Dc: nan}})
			return err
		}},
		{"basic dc Inf", func() error {
			_, err := RunBasicDDP(ctx, ds, BasicConfig{Config: Config{Engine: testEngine(), Dc: inf}})
			return err
		}},
		{"halo M", func() error {
			labels := make([]int32, ds.N())
			_, err := RunLSHHalo(ctx, ds, rhoOnly(make([]float64, ds.N()), 1), labels, LSHConfig{Config: base, M: -3})
			return err
		}},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: err = %v, want a refusal of the out-of-range value", c.name, err)
		}
	}
}
