package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// TestDagSessionSharesWorkAcrossPipelines runs LSH-DDP and then the halo
// pass on one Config — one engine, one trace. Each pipeline runs on its own
// fresh session, so the halo pipeline's stats cover only its own two jobs
// (the d_c sample job is not re-run: halo takes dc as an argument), while
// the shared trace collects both pipelines' jobs in order: LSH-DDP's, then
// exactly halo's.
func TestDagSessionSharesWorkAcrossPipelines(t *testing.T) {
	ds := dataset.Blobs("dag-share", 700, 3, 3, 180, 2, 22)
	trace := &obs.Trace{}
	cfg := core.LSHConfig{
		Config:   core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 4}, Trace: trace, Seed: 6},
		Accuracy: 0.99, M: 8, Pi: 3,
	}
	res, err := core.RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, labels, err := res.Cluster(ds, core.SelectTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	lshTraced := len(trace.Jobs())
	if lshTraced != len(res.Stats.Jobs) {
		t.Fatalf("trace holds %d entries after LSH-DDP's %d jobs", lshTraced, len(res.Stats.Jobs))
	}

	halo, err := core.RunLSHHalo(context.Background(), ds, res, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(halo.Halo) != ds.N() {
		t.Fatalf("halo flags = %d", len(halo.Halo))
	}
	if got := len(halo.Stats.Jobs); got != 2 {
		t.Fatalf("halo pipeline recorded %d jobs, want its own 2", got)
	}
	added := trace.Jobs()[lshTraced:]
	if len(added) != 2 {
		t.Fatalf("halo added %d trace entries, want its 2 jobs", len(added))
	}
	for i, j := range halo.Stats.Jobs {
		if added[i].Job != j.Name {
			t.Fatalf("trace entry %d after LSH-DDP is %q, want halo job %q", i, added[i].Job, j.Name)
		}
	}
}
