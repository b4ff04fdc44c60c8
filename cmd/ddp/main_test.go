package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
)

// TestExactSharesBasicDc: -algo exact is Basic-DDP's sequential
// counterpart on the same input, so both cluster at the d_c the shared
// sampling job picks — on a set larger than the job's sample, where a
// percentile over other pairs would land elsewhere.
func TestExactSharesBasicDc(t *testing.T) {
	ds := dataset.Blobs("ddp-exact-dc", 1200, 2, 4, 100, 3, 5)
	cfg := core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 2}, Seed: 1}
	ctx := context.Background()
	exact, err := runAlgorithm(ctx, ds, "exact", cfg, 0.99, 10, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := runAlgorithm(ctx, ds, "basic", cfg, 0.99, 10, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Dc != basic.Stats.Dc {
		t.Fatalf("exact clusters at dc=%v, basic at %v", exact.Stats.Dc, basic.Stats.Dc)
	}
	for i := range basic.Rho {
		if exact.Rho[i] != basic.Rho[i] {
			t.Fatalf("rho[%d]: exact %v, basic %v", i, exact.Rho[i], basic.Rho[i])
		}
	}
}
