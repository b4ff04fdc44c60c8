package eddpc

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/points"
)

// Conformance: the DAG-scheduled EDDPC pipeline must match the
// hand-sequenced execution bit for bit on the local engine and on a
// 3-worker rpcmr cluster. The reference replays the pre-scheduler
// sequence — four Engine.Run calls with identical confs, the refinement
// input built driver-side between them, and the two aggregation inputs
// concatenated local-then-refined exactly as the old code appended them.

func handSequencedEDDPC(t *testing.T, eng mapreduce.Engine, ds *points.Dataset, cfg Config) (*core.Result, []mapreduce.JobStats) {
	t.Helper()
	ctx := context.Background()
	var jobs []mapreduce.JobStats
	run := func(job *mapreduce.Job, in []mapreduce.Pair) []mapreduce.Pair {
		res, err := eng.Run(ctx, job, in)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		jobs = append(jobs, mapreduce.JobStats{Name: job.Name, Wall: res.Wall, Counters: res.Counters.Snapshot(), Records: len(res.Output)})
		return res.Output
	}
	dc := cfg.Dc
	if dc <= 0 {
		t.Fatal("hand-sequenced reference needs a pinned Dc")
	}

	pivots := samplePivots(ds, cfg.pivots(ds.N()), cfg.Seed)
	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, dc)
	conf[confPivots] = encodePivots(pivots)

	rhoRes := run(RhoJob(conf.Clone()).WithReduces(cfg.NumReduces), core.InputPairs(ds))
	rho, err := core.DecodeRhoArray(rhoRes, ds.N())
	if err != nil {
		t.Fatal(err)
	}
	locRes := run(DeltaLocalJob(conf.Clone()).WithReduces(cfg.NumReduces), core.RhoPointPairs(ds, rho))
	ub, ubUp, err := core.DecodeDeltaArrays(locRes, ds.N())
	if err != nil {
		t.Fatal(err)
	}
	refIn := make([]mapreduce.Pair, ds.N())
	for i, p := range ds.Points {
		refIn[i] = mapreduce.Pair{Value: encodeQuery(points.RhoPoint{Point: p, Rho: rho[i]}, ub[i], ubUp[i])}
	}
	refRes := run(DeltaRefineJob(conf.Clone()).WithReduces(cfg.NumReduces), refIn)
	aggRes := run(core.DeltaAggJob(JobDeltaAgg, mapreduce.Conf{}).WithReduces(cfg.NumReduces),
		append(append([]mapreduce.Pair(nil), locRes...), refRes...))
	delta, upslope, err := core.DecodeDeltaArrays(aggRes, ds.N())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resolveAbsolutePeak(ds, rho, delta, upslope); err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Rho: rho, Delta: delta, Upslope: upslope}
	res.Stats.Dc = dc
	return res, jobs
}

func requireSameEDDPC(t *testing.T, ds *points.Dataset, got, want *core.Result, gotJobs, wantJobs []mapreduce.JobStats) {
	t.Helper()
	for i := range want.Rho {
		if got.Rho[i] != want.Rho[i] {
			t.Fatalf("rho[%d]: dag %v hand-sequenced %v", i, got.Rho[i], want.Rho[i])
		}
		if got.Delta[i] != want.Delta[i] {
			t.Fatalf("delta[%d]: dag %v hand-sequenced %v", i, got.Delta[i], want.Delta[i])
		}
		if got.Upslope[i] != want.Upslope[i] {
			t.Fatalf("upslope[%d]: dag %v hand-sequenced %v", i, got.Upslope[i], want.Upslope[i])
		}
	}
	_, gotLabels, err := got.Cluster(ds, core.SelectTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	_, wantLabels, err := want.Cluster(ds, core.SelectTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLabels {
		if gotLabels[i] != wantLabels[i] {
			t.Fatalf("label[%d]: dag %d hand-sequenced %d", i, gotLabels[i], wantLabels[i])
		}
	}
	if len(gotJobs) != len(wantJobs) {
		t.Fatalf("job count: dag %d hand-sequenced %d", len(gotJobs), len(wantJobs))
	}
	for i := range wantJobs {
		if gotJobs[i].Name != wantJobs[i].Name {
			t.Fatalf("job %d: dag %q hand-sequenced %q", i, gotJobs[i].Name, wantJobs[i].Name)
		}
		for _, ctr := range []string{mapreduce.CtrDistanceComputations, mapreduce.CtrShuffleBytes} {
			if g, w := gotJobs[i].Counters[ctr], wantJobs[i].Counters[ctr]; g != w {
				t.Fatalf("job %d (%s) %s: dag %d hand-sequenced %d", i, wantJobs[i].Name, ctr, g, w)
			}
		}
	}
}

func eddpcConformanceConfig(eng mapreduce.Engine, dc float64) Config {
	return Config{Config: core.Config{Engine: eng, Dc: dc, Seed: 9}}
}

func TestDAGConformanceEDDPCLocal(t *testing.T) {
	ds := dataset.Blobs("dag-conf-eddpc", 800, 4, 3, 200, 2, 17)
	eng := &mapreduce.LocalEngine{Parallelism: 4}
	const dc = 45.0

	res, err := Run(context.Background(), ds, eddpcConformanceConfig(eng, dc))
	if err != nil {
		t.Fatal(err)
	}
	want, wantJobs := handSequencedEDDPC(t, eng, ds, eddpcConformanceConfig(eng, dc))
	requireSameEDDPC(t, ds, res, want, res.Stats.Jobs, wantJobs)
}

func TestDAGConformanceEDDPCCluster(t *testing.T) {
	rpcmr.RegisterJobs(JobFactories())
	rpcmr.RegisterJobs(core.JobFactories())
	master, err := rpcmr.NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	var workers []*rpcmr.Worker
	for i := 0; i < 3; i++ {
		w, err := rpcmr.StartWorker(master.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()

	ds := dataset.Blobs("dag-conf-eddpc-rpc", 600, 3, 3, 160, 2, 18)
	const dc = 45.0
	res, err := Run(context.Background(), ds, eddpcConformanceConfig(master, dc))
	if err != nil {
		t.Fatal(err)
	}
	want, wantJobs := handSequencedEDDPC(t, master, ds, eddpcConformanceConfig(master, dc))
	requireSameEDDPC(t, ds, res, want, res.Stats.Jobs, wantJobs)
}
