package knnjoin_test

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
)

// BenchmarkJoin runs Run at the shape of the benchmark harness's
// batch-knnjoin workload — 4-d blobs of 64 centres in a 400-wide box,
// spread 5, one point in six a query, k = 10, accuracy 0.95 — at a tenth of
// its size (18 000 points) on the local engine. Beside the time per join it
// reports, per query, the bytes both jobs shuffled and the distances the
// run evaluated (the driver's walks over its sample included), and per
// base point the base copies both jobs shipped.
func BenchmarkJoin(b *testing.B) {
	ds := dataset.Blobs("bench-join", 18000, 4, 64, 400, 5, 1)
	R, S, err := dataset.Split(ds, ds.N()/6, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := knnjoin.Config{Accuracy: 0.95, Seed: 1}
	var res *knnjoin.Result
	b.ResetTimer()
	for range b.N {
		if res, err = knnjoin.Run(context.Background(), localSession(), R, S, 10, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Every map output record of the two jobs is a base copy but one per
	// query: each query goes to one bucket, each fallback to one group.
	copies := -int64(R.N() + res.Fallbacks)
	for _, j := range res.Stats.Jobs {
		copies += j.Counters[mapreduce.CtrMapOutputRecords]
	}
	b.ReportMetric(float64(res.Stats.ShuffleBytes)/float64(R.N()), "shuffleB/query")
	b.ReportMetric(float64(copies)/float64(S.N()), "copies/base")
	b.ReportMetric(float64(res.Stats.DistanceComputations)/float64(R.N()), "dists/query")
}
