package core

import (
	"context"
	"testing"

	"repro/internal/dataset"
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

func TestRunLSHHaloFlagsSparseBridge(t *testing.T) {
	ds, rho, labels, dc := haloFixture(t)
	hr, err := RunLSHHalo(context.Background(), ds, rho, labels, dc, LSHConfig{
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
	exactBorder := exactBorders(ds, labels, rho, dc, len(hr.Border))
	for i, h := range hr.Halo {
		if h && rho[i] >= exactBorder[labels[i]] {
			t.Fatalf("point %d flagged halo but exceeds the exact border", i)
		}
	}
}

func TestRunLSHHaloUnderestimatesExactBorder(t *testing.T) {
	ds, rho, labels, dc := haloFixture(t)
	hr, err := RunLSHHalo(context.Background(), ds, rho, labels, dc, LSHConfig{
		Config:   Config{Engine: testEngine(), Seed: 3},
		Accuracy: 0.99, M: 10, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	exactBorder := exactBorders(ds, labels, rho, dc, len(hr.Border))
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
	if _, err := RunLSHHalo(context.Background(), ds, rho[:10], labels, 1, cfg); err == nil {
		t.Fatal("want error for short rho")
	}
	if _, err := RunLSHHalo(context.Background(), ds, rho, labels, 0, cfg); err == nil {
		t.Fatal("want error for dc=0")
	}
	labels[3] = -1
	if _, err := RunLSHHalo(context.Background(), ds, rho, labels, 1, cfg); err == nil {
		t.Fatal("want error for negative label")
	}
}

// exactBorders recomputes border densities by brute force.
func exactBorders(ds *points.Dataset, labels []int32, rho []float64, dc float64, k int) []float64 {
	border := make([]float64, k)
	dc2 := dc * dc
	for i := 0; i < ds.N(); i++ {
		for j := i + 1; j < ds.N(); j++ {
			if labels[i] == labels[j] {
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

func TestHaloJobFactoriesComplete(t *testing.T) {
	fs := HaloJobFactories()
	if fs[JobLSHHalo] == nil || fs[JobLSHHaloAgg] == nil {
		t.Fatal("halo factories incomplete")
	}
}
