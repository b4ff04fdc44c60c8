package core

import (
	"context"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// haloFixture runs LSH-DDP + clustering on two OVERLAPPING Gaussian
// clusters — cross-cluster d_c-pairs exist in the valley between them, so
// border densities are non-trivial — and returns everything halo detection
// needs.
func haloFixture(t *testing.T) (ds *points.Dataset, rho []float64, labels []int32, dc float64) {
	t.Helper()
	rng := points.NewRand(31)
	var vs []points.Vector
	for i := 0; i < 400; i++ {
		vs = append(vs, points.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
	}
	for i := 0; i < 400; i++ {
		vs = append(vs, points.Vector{14 + rng.NormFloat64()*3, rng.NormFloat64() * 3})
	}
	base := points.FromVectors("halo-fix", vs)
	res, err := RunLSHDDP(context.Background(), base, LSHConfig{
		Config:   Config{Engine: testEngine(), Seed: 3},
		Accuracy: 0.99, M: 10, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, lab, err := res.Cluster(base, SelectTopK(2))
	if err != nil {
		t.Fatal(err)
	}
	return base, res.Rho, lab, res.Stats.Dc
}

// rhoOnly is a Result that carries densities and d_c and no ρ ship plan,
// as a halo run on densities from anywhere but RunLSHDDP sees it.
func rhoOnly(rho []float64, dc float64) *Result {
	return &Result{Rho: rho, Stats: Stats{Dc: dc}}
}

// TestRunLSHHaloReusesRhoPlan holds a halo run on RunLSHDDP's result, which
// ships by the ρ job's plan, to one on its densities alone, which plans
// anew: the same flags, borders and per-job counters, under the run's own
// parameters and under others, which must not take the plan. A plan that
// ships nothing shows the run's own parameters do take it.
func TestRunLSHHaloReusesRhoPlan(t *testing.T) {
	ctx := context.Background()
	ds := dataset.Blobs("halo-plan", 600, 3, 4, 60, 2, 9)
	cfg := LSHConfig{Config: Config{Engine: testEngine(), Seed: 3}, M: 10, Pi: 3}
	res, err := RunLSHDDP(ctx, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.plan == nil || len(res.plan.masks) != ds.N()*2 {
		t.Fatalf("RunLSHDDP kept no plan of %d mask bytes", ds.N()*2)
	}
	_, labels, err := res.Cluster(ds, SelectTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 4
	fewer := cfg
	fewer.M = 9
	for _, c := range []LSHConfig{cfg, other, fewer} {
		got, err := RunLSHHalo(ctx, ds, res, labels, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunLSHHalo(ctx, ds, rhoOnly(res.Rho, res.Stats.Dc), labels, c)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Halo, want.Halo) || !slices.Equal(got.Border, want.Border) {
			t.Fatalf("seed %d, M %d: borders %v with the ρ plan, %v planned anew", c.Seed, c.M, got.Border, want.Border)
		}
		for i, j := range want.Stats.Jobs {
			if !maps.Equal(got.Stats.Jobs[i].Counters, j.Counters) {
				t.Fatalf("seed %d, M %d, %s: counters %v with the ρ plan, %v planned anew", c.Seed, c.M, j.Name, got.Stats.Jobs[i].Counters, j.Counters)
			}
		}
	}
	empty := *res
	empty.plan = &shipPlan{conf: res.plan.conf, masks: make([]byte, len(res.plan.masks)), unsent: res.plan.unsent}
	hr, err := RunLSHHalo(ctx, ds, &empty, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Stats.DistanceComputations != 0 {
		t.Fatalf("a plan that ships nothing: %d distances, want 0", hr.Stats.DistanceComputations)
	}
}

func TestRunLSHHaloFlagsSparseBridge(t *testing.T) {
	ds, rho, labels, dc := haloFixture(t)
	hr, err := RunLSHHalo(context.Background(), ds, rhoOnly(rho, dc), labels, LSHConfig{
		Config:   Config{Engine: testEngine(), Seed: 3},
		Accuracy: 0.99, M: 10, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Halo) != ds.N() || len(hr.Border) < 2 {
		t.Fatalf("halo shapes: %d flags, %d borders", len(hr.Halo), len(hr.Border))
	}
	// The overlap region must produce halo points, but cluster cores
	// (densest points) must survive.
	total := 0
	for _, h := range hr.Halo {
		if h {
			total++
		}
	}
	if total == 0 {
		t.Fatal("no halo points on overlapping clusters")
	}
	if total > ds.N()*3/4 {
		t.Fatalf("%d/%d points flagged halo", total, ds.N())
	}
	// Halo points are systematically less dense than core points.
	var haloRho, coreRho float64
	for i, h := range hr.Halo {
		if h {
			haloRho += rho[i]
		} else {
			coreRho += rho[i]
		}
	}
	if haloRho/float64(total) >= coreRho/float64(ds.N()-total) {
		t.Fatal("halo points are not less dense than core points")
	}
	// The LSH border estimate is an underestimate, so the estimated halo
	// set must be a subset of the exact halo set.
	exactBorder := exactBorders(ds, labels, rho, dc, len(hr.Border), nil)
	for i, h := range hr.Halo {
		if h && rho[i] >= exactBorder[labels[i]] {
			t.Fatalf("point %d flagged halo but exceeds the exact border", i)
		}
	}
}

func TestRunLSHHaloUnderestimatesExactBorder(t *testing.T) {
	ds, rho, labels, dc := haloFixture(t)
	hr, err := RunLSHHalo(context.Background(), ds, rhoOnly(rho, dc), labels, LSHConfig{
		Config:   Config{Engine: testEngine(), Seed: 3},
		Accuracy: 0.99, M: 10, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	exactBorder := exactBorders(ds, labels, rho, dc, len(hr.Border), nil)
	for c := range hr.Border {
		if hr.Border[c] > exactBorder[c]+1e-9 {
			t.Fatalf("cluster %d: estimated border %v exceeds exact %v", c, hr.Border[c], exactBorder[c])
		}
	}
}

func TestRunLSHHaloValidation(t *testing.T) {
	ds := dataset.Blobs("halo-bad", 50, 2, 2, 100, 2, 1)
	rho := make([]float64, 50)
	labels := make([]int32, 50)
	cfg := LSHConfig{Config: Config{Engine: testEngine()}}
	if _, err := RunLSHHalo(context.Background(), ds, rhoOnly(rho[:10], 1), labels, cfg); err == nil {
		t.Fatal("want error for short rho")
	}
	if _, err := RunLSHHalo(context.Background(), ds, rhoOnly(rho, 0), labels, cfg); err == nil {
		t.Fatal("want error for dc=0")
	}
	labels[3] = -1
	if _, err := RunLSHHalo(context.Background(), ds, rhoOnly(rho, 1), labels, cfg); err == nil {
		t.Fatal("want error for negative label")
	}
}

// exactBorders recomputes border densities by brute force, over the pairs
// keep admits (every pair when keep is nil).
func exactBorders(ds *points.Dataset, labels []int32, rho []float64, dc float64, k int, keep func(i, j int) bool) []float64 {
	border := make([]float64, k)
	dc2 := dc * dc
	for i := 0; i < ds.N(); i++ {
		for j := i + 1; j < ds.N(); j++ {
			if labels[i] == labels[j] || keep != nil && !keep(i, j) {
				continue
			}
			if points.SqDist(ds.Points[i].Pos, ds.Points[j].Pos) < dc2 {
				avg := (rho[i] + rho[j]) / 2
				if avg > border[labels[i]] {
					border[labels[i]] = avg
				}
				if avg > border[labels[j]] {
					border[labels[j]] = avg
				}
			}
		}
	}
	return border
}

// TestHaloBorderIsCoBucketedMax: the distributed border is, bit for bit,
// the brute-force max over the cross-cluster pairs within d_c that share a
// bucket in some layout — the pair set the LSH jobs see, whatever the ship
// plan drops and the reducers prune or leave to an earlier layout. On the
// count-identity fixture, and on an integer lattice whose every point is
// stored three times, the copies in one cluster, where distances tie at d_c
// and densities tie too.
func TestHaloBorderIsCoBucketedMax(t *testing.T) {
	rng := points.NewRand(8)
	var vs []points.Vector
	for i := 0; i < 160; i++ {
		v := points.Vector{float64(rng.Intn(16)), float64(rng.Intn(12))}
		vs = append(vs, v, v.Clone(), v.Clone())
	}
	lattice := points.FromVectors("halo-lattice", vs)
	for _, c := range []struct {
		name     string
		ds       *points.Dataset
		cfg      LSHConfig
		clusters int // point i's cluster is i/group % clusters
		group    int
		rhos     int // densities are drawn from 0 … rhos−1
	}{
		{"blobs", dataset.Blobs("count", 300, 3, 4, 30, 2.5, 5), LSHConfig{Config: Config{Dc: 2, Seed: 3}, M: 7, Pi: 2, W: 9}, 60, 1, 1000},
		{"lattice", lattice, LSHConfig{Config: Config{Dc: 2, Seed: 5}, M: 6, Pi: 2, W: 5}, 40, 3, 50},
	} {
		t.Run(c.name, func(t *testing.T) {
			rho := make([]float64, c.ds.N())
			labels := make([]int32, c.ds.N())
			for i := range rho {
				rho[i], labels[i] = float64(rng.Intn(c.rhos)), int32(i/c.group%c.clusters)
			}
			cb := newCoBucketed(c.ds, c.cfg)
			want := exactBorders(c.ds, labels, rho, c.cfg.Dc, c.clusters, func(i, j int) bool { return cb.shared(i, j) > 0 })
			if slices.Max(want) == 0 {
				t.Fatal("fixture raises no border")
			}
			for _, par := range []int{1, 3} {
				cfg := c.cfg
				cfg.Engine = &mapreduce.LocalEngine{Parallelism: par}
				hr, err := RunLSHHalo(context.Background(), c.ds, rhoOnly(rho, cfg.Dc), labels, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for k := range want {
					if math.Float64bits(hr.Border[k]) != math.Float64bits(want[k]) {
						t.Fatalf("parallelism %d: border[%d] = %v, brute force over the co-bucketed pairs %v", par, k, hr.Border[k], want[k])
					}
				}
			}
		})
	}
}

// TestDecodeBordersRefuses: the halo aggregation's decode takes at most one
// 8-byte record per cluster in range, and its fold 8-byte records only; a
// short record is refused rather than read past its end, a long or repeated
// one rather than taken.
func TestDecodeBordersRefuses(t *testing.T) {
	rec := func(c int32, v []byte) mapreduce.Pair { return mapreduce.Pair{Key: mapreduce.IDKey(c), Value: v} }
	good := []mapreduce.Pair{rec(2, points.EncodeFloat64(1.5)), rec(0, points.EncodeFloat64(4))}
	if border, err := decodeBorders(good, 3); err != nil || !slices.Equal(border, []float64{4, 0, 1.5}) {
		t.Fatalf("decoded %v, error %v", border, err)
	}
	short, long := []byte{1, 2, 3}, append(points.EncodeFloat64(1), 0)
	for _, c := range []struct {
		name string
		out  []mapreduce.Pair
	}{
		{"two records for a cluster", append(slices.Clone(good), rec(2, points.EncodeFloat64(1.5)))},
		{"a short record", append(slices.Clone(good), rec(1, short))},
		{"a long record", append(slices.Clone(good), rec(1, long))},
		{"a key past the last cluster", append(slices.Clone(good), rec(3, points.EncodeFloat64(1)))},
		{"a negative key", append(slices.Clone(good), rec(-1, points.EncodeFloat64(1)))},
	} {
		if _, err := decodeBorders(c.out, 3); err == nil {
			t.Errorf("%s: decoded without an error", c.name)
		}
	}
	fold := LSHHaloAggJob(nil).Reduce
	var got []float64
	emit := mapreduce.EmitterFunc(func(_ string, v []byte) { got = append(got, points.DecodeFloat64(v)) })
	if err := fold(nil, "0", [][]byte{points.EncodeFloat64(1), points.EncodeFloat64(3)}, emit); err != nil || !slices.Equal(got, []float64{3}) {
		t.Fatalf("fold emitted %v, error %v", got, err)
	}
	for _, v := range [][]byte{short, long} {
		if err := fold(nil, "0", [][]byte{points.EncodeFloat64(1), v}, emit); err == nil {
			t.Errorf("fold took a %d-byte record", len(v))
		}
	}
}

func TestHaloJobFactoriesComplete(t *testing.T) {
	fs := HaloJobFactories()
	if fs[JobLSHHalo] == nil || fs[JobLSHHaloAgg] == nil {
		t.Fatal("halo factories incomplete")
	}
}
