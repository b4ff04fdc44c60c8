package fleet

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestSampledWeightBalance checks that the partitioner's placement
// balances its own sampled bucket-cost estimate: on a clustered model the
// busiest shard must stay within 25% of the ideal share. The estimate is
// recomputed here through the same helpers Partition uses, so the test
// pins the greedy placement, not the estimator's absolute scale.
func TestSampledWeightBalance(t *testing.T) {
	ds := dataset.Blobs("fleet-balance", 4000, 2, 3, 100, 2.5, 7)
	res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{Config: core.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	peaks, labels, err := res.Cluster(ds, core.SelectTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := core.RunLSHHalo(context.Background(), ds, res.Rho, labels, res.Stats.Dc, core.LSHConfig{Config: core.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := core.ExportModel(ds, res, peaks, labels, hr.Border, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		_, mf, err := Partition(mdl, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		place, err := mf.Placement()
		if err != nil {
			t.Fatal(err)
		}
		ix := mf.Layouts().BuildIndex(mdl.Data, mdl.N(), nil)
		weights := estimateBucketWeights(ix, mf.Layouts(), mdl.Data, mdl.Dim)
		load := make([]float64, shards)
		total := 0.0
		for id, w := range weights {
			load[place.Owner(ix.Keys[id])] += w
			total += w
		}
		ideal := total / float64(shards)
		for s, w := range load {
			if w > ideal*1.25 {
				t.Errorf("shards=%d: shard %d carries %.0f of %.0f estimated scan cost (ideal %.0f, cap +25%%)",
					shards, s, w, total, ideal)
			}
		}
	}
}
