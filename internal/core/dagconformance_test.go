package core

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/points"
)

// Conformance: the session-run pipelines must reproduce the hand-sequenced
// execution bit for bit — same arrays, same labels, same per-job counters —
// on the local engine and on a real rpcmr cluster. The hand-sequenced
// reference below replays the chain RunLSHDDP runs — the same five jobs and
// the driver-side steps between them (each aggregation's input grouped by
// mapreduce.SortByIDKey among them), one Engine.Run at a time, with
// identical confs.

// handSequencedLSHDDP executes the LSH-DDP job sequence directly
// on an engine and returns the arrays plus the stats of the jobs it ran.
func handSequencedLSHDDP(t *testing.T, eng mapreduce.Engine, ds *points.Dataset, cfg LSHConfig) (*Result, []mapreduce.JobStats) {
	t.Helper()
	cfg = filled(cfg)
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
	grouped := func(in []mapreduce.Pair) []mapreduce.Pair {
		g, err := mapreduce.SortByIDKey(in)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	input := InputPairs(ds)

	// Job 0: d_c sampling (cfg.Dc is 0 in these tests).
	frac := 1.0
	if n := ds.N(); n > dcSamplePoints {
		frac = float64(dcSamplePoints) / float64(n)
	}
	dcConf := mapreduce.Conf{}
	dcConf.SetFloat(confSampleFrac, frac)
	dcConf.SetInt64(confSeed, cfg.Seed)
	dcRes := run(DcSampleJob(dcConf), input)
	dc := points.DecodeFloat64(dcRes[0].Value)
	w, err := lsh.SolveWidth(cfg.Accuracy, dc, cfg.Pi, cfg.M)
	if err != nil {
		t.Fatal(err)
	}

	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, dc)
	conf.SetInt(confDim, ds.Dim())
	conf.SetInt(confM, cfg.M)
	conf.SetInt(confPi, cfg.Pi)
	conf.SetFloat(confW, w)
	conf.SetInt64(confSeed, cfg.Seed)

	layouts, err := layoutsOf(conf)
	if err != nil {
		t.Fatal(err)
	}
	rowKeys, plan, err := planRho(input, layouts, conf)
	if err != nil {
		t.Fatal(err)
	}
	p1 := run(LSHRhoJob(conf.Clone()), plan.rhoInput(input))
	p2 := run(LSHRhoAggJob(conf.Clone()), grouped(p1))
	rho, near, err := decodeRhoValues(p2, ds.N())
	if err != nil {
		t.Fatal(err)
	}
	delta, upslope, open := certify(rho, near)
	p3 := run(LSHDeltaJob(conf.Clone()), shipRows(ds, rowKeys, rho, open))
	p4 := run(DeltaAggJob(JobLSHDelAgg, mapreduce.Conf{}), grouped(p3))
	if err := decodeOpenDeltas(p4, delta, upslope, open); err != nil {
		t.Fatal(err)
	}
	res := &Result{Rho: rho, Delta: delta, Upslope: upslope}
	res.Stats.Dc = dc
	return res, jobs
}

// requireSameResult compares two pipeline results bit for bit, including
// the cluster labels both induce.
func requireSameResult(t *testing.T, ds *points.Dataset, got, want *Result, k int) {
	t.Helper()
	if got.Stats.Dc != want.Stats.Dc {
		t.Fatalf("dc: dag %v hand-sequenced %v", got.Stats.Dc, want.Stats.Dc)
	}
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
	_, gotLabels, err := got.Cluster(ds, SelectTopK(k))
	if err != nil {
		t.Fatal(err)
	}
	_, wantLabels, err := want.Cluster(ds, SelectTopK(k))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLabels {
		if gotLabels[i] != wantLabels[i] {
			t.Fatalf("label[%d]: dag %d hand-sequenced %d", i, gotLabels[i], wantLabels[i])
		}
	}
}

// requireSameJobCounters compares the per-job counter streams of the two
// executions: same job names in the same order, identical logical
// counters (wall time is the only thing allowed to differ).
func requireSameJobCounters(t *testing.T, got, want []mapreduce.JobStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("job count: dag %d hand-sequenced %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("job %d: dag %q hand-sequenced %q", i, got[i].Name, want[i].Name)
		}
		for _, ctr := range []string{
			mapreduce.CtrDistanceComputations,
			mapreduce.CtrShuffleBytes,
			mapreduce.CtrMapInputRecords,
			mapreduce.CtrReduceOutputRecords,
		} {
			if g, w := got[i].Counters[ctr], want[i].Counters[ctr]; g != w {
				t.Fatalf("job %d (%s) %s: dag %d hand-sequenced %d", i, want[i].Name, ctr, g, w)
			}
		}
	}
}

func lshConformanceConfig(eng mapreduce.Engine) LSHConfig {
	return LSHConfig{
		Config:   Config{Engine: eng, Seed: 7},
		Accuracy: 0.99, M: 8, Pi: 3,
	}
}

func TestDAGConformanceLSHDDPLocal(t *testing.T) {
	ds := dataset.Blobs("dag-conf-lsh", 900, 4, 4, 220, 2, 11)
	var first *Result
	for _, par := range []int{1, 3} {
		eng := &mapreduce.LocalEngine{Parallelism: par}
		res, err := RunLSHDDP(context.Background(), ds, lshConformanceConfig(eng))
		if err != nil {
			t.Fatal(err)
		}
		want, wantJobs := handSequencedLSHDDP(t, eng, ds, lshConformanceConfig(eng))
		requireSameResult(t, ds, res, want, 4)
		requireSameJobCounters(t, res.Stats.Jobs, wantJobs)
		if res.Stats.Dag[dag.CtrNodes] == 0 {
			t.Fatalf("dag run reported no scheduler nodes: %v", res.Stats.Dag)
		}
		// The partition count moves no answer and no distance count (the
		// combiners make shuffle volume depend on the map split).
		if first == nil {
			first = res
			continue
		}
		requireSameResult(t, ds, res, first, 4)
		for i, j := range first.Stats.Jobs {
			if got := res.Stats.Jobs[i].Counters[mapreduce.CtrDistanceComputations]; got != j.Counters[mapreduce.CtrDistanceComputations] {
				t.Fatalf("%s: %d distance computations at parallelism %d, %d at 1", j.Name, got, par, j.Counters[mapreduce.CtrDistanceComputations])
			}
		}
	}
}

func TestDAGConformanceLSHDDPCluster(t *testing.T) {
	rpcmr.RegisterJobs(JobFactories())
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

	ds := dataset.Blobs("dag-conf-lsh-rpc", 700, 3, 4, 180, 2, 12)
	res, err := RunLSHDDP(context.Background(), ds, lshConformanceConfig(master))
	if err != nil {
		t.Fatal(err)
	}
	want, wantJobs := handSequencedLSHDDP(t, master, ds, lshConformanceConfig(master))
	requireSameResult(t, ds, res, want, 4)
	requireSameJobCounters(t, res.Stats.Jobs, wantJobs)
}
