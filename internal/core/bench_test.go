package core

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/mapreduce"
)

// BenchmarkLSHDDP runs RunLSHDDP at the shape of the benchmark harness's
// batch-lshddp workload — 8-d blobs of 16 centres in a 100-wide box, spread
// 2.5, the paper's LSH defaults — at a tenth of its size (3 000 points) on
// the local engine at P = 2. Beside the time and allocations per run it
// reports the distances the run evaluated per point.
func BenchmarkLSHDDP(b *testing.B) {
	ds := dataset.Blobs("bench-lshddp", 3000, 8, 16, 100, 2.5, 1)
	cfg := LSHConfig{Config: Config{Engine: &mapreduce.LocalEngine{Parallelism: 2}, Seed: 1}}
	var res *Result
	var err error
	b.ResetTimer()
	for range b.N {
		if res, err = RunLSHDDP(context.Background(), ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Stats.DistanceComputations)/float64(ds.N()), "dist/point")
}

// BenchmarkPlanRho runs planRho, the driver's ρ ship plan, once per op at
// the full batch-lshddp harness shape — 30 000 8-d blobs of 16 centres in a
// 100-wide box, spread 2.5, the paper's LSH defaults, d_c at the 2 %
// distance percentile. The index build and every layout's ownership walk
// are in each op; the point records are encoded once, outside the timer.
func BenchmarkPlanRho(b *testing.B) {
	ds := dataset.Blobs("bench-lshddp", 30000, 8, 16, 100, 2.5, 1)
	cfg := filled(LSHConfig{Config: Config{Seed: 1}})
	conf, _, err := cfg.jobConf(dp.CutoffByPercentile(ds, 0.02, 1), ds.Dim())
	if err != nil {
		b.Fatal(err)
	}
	layouts, err := layoutsOf(conf)
	if err != nil {
		b.Fatal(err)
	}
	input := InputPairs(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := planRho(input, layouts, conf); err != nil {
			b.Fatal(err)
		}
	}
}
