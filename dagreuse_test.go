package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
)

// TestDagCacheReuseAcrossPipelineRuns shares one cached DAG session
// across two identical LSH-DDP runs: the second run must be served
// entirely from the node-result cache — zero new MapReduce jobs, every
// node a cache hit — and still return bit-identical results.
func TestDagCacheReuseAcrossPipelineRuns(t *testing.T) {
	ds := dataset.Blobs("dag-reuse", 800, 4, 4, 200, 2, 21)
	sess := dag.NewSession(&mapreduce.LocalEngine{Parallelism: 4}, dag.Options{CacheBytes: 64 << 20})
	cfg := core.LSHConfig{
		Config:   core.Config{Session: sess, Seed: 5},
		Accuracy: 0.99, M: 8, Pi: 3,
	}

	first, err := core.RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobsAfterFirst := len(sess.Jobs())
	if jobsAfterFirst == 0 {
		t.Fatal("first run executed no jobs")
	}
	if hits := first.Stats.Dag[dag.CtrCacheHits]; hits != 0 {
		t.Fatalf("first run already had %d cache hits", hits)
	}

	second, err := core.RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sess.Jobs()); n != jobsAfterFirst {
		t.Fatalf("second run launched %d new MapReduce jobs, want 0", n-jobsAfterFirst)
	}
	if hits := second.Stats.Dag[dag.CtrCacheHits]; hits == 0 {
		t.Fatalf("second run had no cache hits: %v", second.Stats.Dag)
	}
	if n := second.Stats.Dag[dag.CtrNodes]; n != 0 {
		t.Fatalf("second run executed %d job nodes, want all cached", n)
	}
	if n := second.Stats.Dag[dag.CtrTransforms]; n != 0 {
		t.Fatalf("second run executed %d transforms, want all cached", n)
	}
	for i := range first.Rho {
		if first.Rho[i] != second.Rho[i] || first.Delta[i] != second.Delta[i] || first.Upslope[i] != second.Upslope[i] {
			t.Fatalf("cached rerun diverged at point %d", i)
		}
	}
}

// TestDagSessionSharesWorkAcrossPipelines reuses one session for LSH-DDP
// and then the halo pass: the halo pipeline stages its own labeled input
// but runs on the same session, so session counters accumulate and the
// session's job ledger carves cleanly per pipeline (the d_c sample job is
// not re-run by halo, which takes dc as an argument).
func TestDagSessionSharesWorkAcrossPipelines(t *testing.T) {
	ds := dataset.Blobs("dag-share", 700, 3, 3, 180, 2, 22)
	sess := dag.NewSession(&mapreduce.LocalEngine{Parallelism: 4}, dag.Options{CacheBytes: 64 << 20})
	cfg := core.LSHConfig{
		Config:   core.Config{Session: sess, Seed: 6},
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
	lshJobs := len(res.Stats.Jobs)

	halo, err := core.RunLSHHalo(context.Background(), ds, res.Rho, labels, res.Stats.Dc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(halo.Halo) != ds.N() {
		t.Fatalf("halo flags = %d", len(halo.Halo))
	}
	// Per-pipeline stats must cover only each pipeline's own jobs even
	// though both ran on one shared session.
	if got := len(halo.Stats.Jobs); got != 2 {
		t.Fatalf("halo pipeline recorded %d jobs, want its own 2", got)
	}
	if total := len(sess.Jobs()); total != lshJobs+2 {
		t.Fatalf("session has %d jobs, want %d lsh + 2 halo", total, lshJobs)
	}
}
