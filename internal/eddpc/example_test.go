package eddpc_test

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/eddpc"
	"repro/internal/mapreduce"
)

// EDDPC is exact: its results match sequential DP bit-for-bit while
// pruning most distance work with Voronoi filtering.
func ExampleRun() {
	ds := dataset.Blobs("eddpc-demo", 400, 3, 3, 200, 3, 11)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)

	exact, err := dp.Compute(ds, dc)
	if err != nil {
		panic(err)
	}
	res, err := eddpc.Run(context.Background(), ds, eddpc.Config{
		Config: core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 2}, Dc: dc, Seed: 2},
		Pivots: 10,
	})
	if err != nil {
		panic(err)
	}
	same := true
	for i := range exact.Rho {
		if res.Rho[i] != exact.Rho[i] || math.Abs(res.Delta[i]-exact.Delta[i]) > 1e-9 {
			same = false
		}
	}
	naive := int64(ds.N()) * int64(ds.N()-1) // two exact all-pairs jobs
	fmt.Println("matches sequential DP:", same)
	fmt.Println("saved distance work vs Basic-DDP:", res.Stats.DistanceComputations < naive)
	// Output:
	// matches sequential DP: true
	// saved distance work vs Basic-DDP: true
}
