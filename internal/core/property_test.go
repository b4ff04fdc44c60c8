package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/points"
)

// Property suite for the paper's two structural guarantees, over random
// small data sets and random LSH configurations:
//
//	(1) ρ̂_i ≤ ρ_i always (every local estimate undercounts; max keeps that).
//	(2) where ρ̂ = ρ exactly, δ̂_i ≥ δ_i (each local δ̂ minimizes over a
//	    subset of the true candidate set; min keeps that).
//	(3) adding layouts never decreases ρ̂ (Theorem 1's monotonicity).
func TestLSHDDPStructuralProperties(t *testing.T) {
	f := func(seedRaw uint32, mRaw, piRaw uint8) bool {
		seed := int64(seedRaw%1000) + 1
		m := int(mRaw%6) + 1
		pi := int(piRaw%4) + 1

		rng := points.NewRand(seed)
		vs := make([]points.Vector, 80)
		for i := range vs {
			vs[i] = points.Vector{rng.Float64() * 20, rng.Float64() * 20, rng.Float64() * 20}
		}
		ds := points.FromVectors("prop", vs)
		dc := dp.CutoffByPercentile(ds, 0.05, seed)
		if dc <= 0 {
			return true
		}
		exact, err := dp.Compute(ds, dc)
		if err != nil {
			return false
		}
		// Pin the width: letting each run re-solve w from its own M would
		// change the hash functions and break the layout-prefix property
		// that monotonicity (3) relies on.
		run := func(mm int) (*Result, error) {
			return RunLSHDDP(context.Background(), ds, LSHConfig{
				Config: Config{Engine: testEngine(), Dc: dc, Seed: seed},
				M:      mm, Pi: pi, W: dc * 6,
			})
		}
		res, err := run(m)
		if err != nil {
			return false
		}
		for i := range exact.Rho {
			if res.Rho[i] > exact.Rho[i] { // (1)
				return false
			}
			if res.Rho[i] == exact.Rho[i] && exact.Upslope[i] != -1 {
				if res.Delta[i] < exact.Delta[i]-1e-9 { // (2)
					return false
				}
			}
		}
		// (3): note the extra layouts must EXTEND the first m (same seed
		// derivation in lsh.NewLayouts), so rho-hat can only improve.
		bigger, err := run(m + 2)
		if err != nil {
			return false
		}
		for i := range res.Rho {
			if bigger.Rho[i] < res.Rho[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: the d_c sampling job returns a value inside the true pairwise
// distance range for arbitrary small data sets.
func TestDcSampleWithinRange(t *testing.T) {
	f := func(seedRaw uint32) bool {
		seed := int64(seedRaw%500) + 1
		rng := points.NewRand(seed)
		vs := make([]points.Vector, 60)
		for i := range vs {
			vs[i] = points.Vector{rng.Float64() * 9, rng.NormFloat64()}
		}
		ds := points.FromVectors("dc-prop", vs)
		res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
			Config: Config{Engine: testEngine(), Seed: seed},
		})
		if err != nil {
			return false
		}
		var minD, maxD = math.Inf(1), 0.0
		for i := 0; i < ds.N(); i++ {
			for j := i + 1; j < ds.N(); j++ {
				d := points.Dist(ds.Points[i].Pos, ds.Points[j].Pos)
				if d < minD {
					minD = d
				}
				if d > maxD {
					maxD = d
				}
			}
		}
		return res.Stats.Dc >= minD && res.Stats.Dc <= maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
