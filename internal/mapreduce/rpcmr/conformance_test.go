package rpcmr

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/obs"
)

// stripWireCounters drops the shuffle.wire.* counters before cross-engine
// comparison: they measure transport bytes, which only the distributed
// engine has. The logical shuffle.bytes counter stays in the comparison —
// the transport must not change what the paper's metric reports.
func stripWireCounters(c map[string]int64) {
	for k := range c {
		if strings.HasPrefix(k, "shuffle.wire.") {
			delete(c, k)
		}
	}
}

// TestRunnerConformance drives the same LSH-DDP density job through both
// mapreduce.Engine implementations — the in-process LocalEngine and a real
// 3-worker rpcmr cluster — each under its own dag.Session, and asserts they
// are observationally identical: same output, same counter totals, the same
// trace span geometry, and one ledger entry each. Task counts are pinned
// because the two engines default them differently (the local engine
// defaults maps to its parallelism, the master to 2× workers); both split
// with mapreduce.SplitInput and run mapreduce.ExecuteMapTask /
// ExecuteReduceTask, so every per-task counter is deterministic.
func TestRunnerConformance(t *testing.T) {
	ds := dataset.Blobs("conformance", 600, 2, 4, 100, 3, 11)
	input := core.InputPairs(ds)

	conf := mapreduce.Conf{}
	conf.SetFloat("ddp.dc", 4.0)
	conf.SetInt("ddp.dim", ds.Dim())
	conf.SetInt("ddp.lsh.m", 4)
	conf.SetInt("ddp.lsh.pi", 2)
	conf.SetFloat("ddp.lsh.w", 12)
	conf.SetInt64("ddp.seed", 7)

	const nMaps, nReduces = 4, 3
	makeJob := func() *mapreduce.Job {
		j := core.JobFactories()[core.JobLSHRho](conf.Clone())
		j.NumMaps = nMaps
		j.NumReduces = nReduces
		return j
	}

	master, _ := startCluster(t, 3)
	runners := []struct {
		name   string
		engine mapreduce.Engine
	}{
		{"local", &mapreduce.LocalEngine{Parallelism: 3}},
		{"rpcmr", master},
	}

	type observed struct {
		output   []mapreduce.Pair
		counters map[string]int64
		spans    map[obs.Phase]int
		bytes    int64
	}
	results := make(map[string]observed)

	for _, rc := range runners {
		t.Run(rc.name, func(t *testing.T) {
			sess := dag.NewSession(rc.engine, dag.Options{})
			g := dag.NewGraph("conformance")
			outs, err := sess.Run(context.Background(), g, g.Job(makeJob(), g.Source("points", input)))
			if err != nil {
				t.Fatal(err)
			}
			ledger := sess.Since(dag.Mark{})
			if len(ledger.Jobs) != 1 {
				t.Fatalf("ledger has %d jobs, want 1", len(ledger.Jobs))
			}
			if len(ledger.JobTraces) != 1 {
				t.Fatalf("ledger has %d job traces, want 1", len(ledger.JobTraces))
			}
			trace, counters := ledger.JobTraces[0], ledger.Jobs[0].Counters
			if trace.ID == 0 {
				t.Fatal("ledger left the job trace without an ID")
			}

			// PhaseFetch spans are the distributed engine's wire-level
			// observation (one per remote shuffle fetch) — engine-specific
			// by design, so they sit outside the geometry invariant. Their
			// Bytes must still be real: positive, and consistent with the
			// job's wire counters.
			spans := map[obs.Phase]int{}
			var shuffleBytes, fetchWireBytes int64
			for _, s := range trace.Spans {
				if s.JobID != trace.ID {
					t.Fatalf("%s span of task %d has job id %d, its trace %d", s.Phase, s.Task, s.JobID, trace.ID)
				}
				if s.Phase == obs.PhaseFetch {
					if s.Bytes <= 0 {
						t.Fatalf("fetch span with %d wire bytes", s.Bytes)
					}
					fetchWireBytes += s.Bytes
					continue
				}
				spans[s.Phase]++
				if s.Phase == obs.PhaseShuffle {
					shuffleBytes += s.Bytes
				}
			}
			if ctr := counters[mapreduce.CtrShuffleWireBytesCompressed]; fetchWireBytes != ctr {
				t.Fatalf("fetch span bytes = %d, %s counter = %d",
					fetchWireBytes, mapreduce.CtrShuffleWireBytesCompressed, ctr)
			}
			// Geometry: one map, sort, and shuffle span per map task (the
			// job has no combiner), one reduce span per reduce task.
			want := map[obs.Phase]int{
				obs.PhaseMap:     nMaps,
				obs.PhaseSort:    nMaps,
				obs.PhaseShuffle: nMaps,
				obs.PhaseReduce:  nReduces,
			}
			if !reflect.DeepEqual(spans, want) {
				t.Fatalf("span counts = %v, want %v", spans, want)
			}

			// Acceptance invariant: shuffle spans account exactly the bytes
			// the shuffle counter measures.
			if ctr := counters[mapreduce.CtrShuffleBytes]; shuffleBytes != ctr {
				t.Fatalf("shuffle span bytes = %d, %s counter = %d",
					shuffleBytes, mapreduce.CtrShuffleBytes, ctr)
			}

			out := append([]mapreduce.Pair(nil), outs[0]...)
			sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
			results[rc.name] = observed{
				output:   out,
				counters: counters,
				spans:    spans,
				bytes:    shuffleBytes,
			}
		})
	}

	local, rpc := results["local"], results["rpcmr"]
	if local.output == nil || rpc.output == nil {
		t.Fatal("one of the runners did not record results")
	}
	stripWireCounters(local.counters)
	stripWireCounters(rpc.counters)
	if !reflect.DeepEqual(local.counters, rpc.counters) {
		t.Errorf("counter snapshots differ:\n local: %v\n rpcmr: %v", local.counters, rpc.counters)
	}
	if !reflect.DeepEqual(local.spans, rpc.spans) {
		t.Errorf("span counts differ: local %v, rpcmr %v", local.spans, rpc.spans)
	}
	if local.bytes != rpc.bytes {
		t.Errorf("shuffle span bytes differ: local %d, rpcmr %d", local.bytes, rpc.bytes)
	}
	if len(local.output) != len(rpc.output) {
		t.Fatalf("output sizes differ: local %d, rpcmr %d", len(local.output), len(rpc.output))
	}
	for i := range local.output {
		if local.output[i].Key != rpc.output[i].Key {
			t.Fatalf("output key %d differs: %q vs %q", i, local.output[i].Key, rpc.output[i].Key)
		}
	}
}

// TestConformanceParallelKernels repeats the density job with the
// intra-partition parallelism knobs set in Conf. The knobs ride the same
// (name, conf) job transport as every other parameter, so remote workers
// must rebuild them and take the parallel path: both engines must count the
// same dp.parallel.groups, and byte-identical output proves the parallel
// tile merge reproduces the serial kernel on the distributed engine too.
func TestConformanceParallelKernels(t *testing.T) {
	ds := dataset.Blobs("conformance-par", 600, 2, 4, 100, 3, 11)
	input := core.InputPairs(ds)

	conf := mapreduce.Conf{}
	conf.SetFloat("ddp.dc", 4.0)
	conf.SetInt("ddp.dim", ds.Dim())
	conf.SetInt("ddp.lsh.m", 4)
	conf.SetInt("ddp.lsh.pi", 2)
	conf.SetFloat("ddp.lsh.w", 12)
	conf.SetInt64("ddp.seed", 7)
	conf.SetInt("ddp.parallel.threshold", 32)
	conf.SetInt("ddp.parallel.workers", 3)

	makeJob := func() *mapreduce.Job {
		j := core.JobFactories()[core.JobLSHRho](conf.Clone())
		j.NumMaps = 4
		j.NumReduces = 3
		return j
	}

	master, _ := startCluster(t, 3)
	runners := []struct {
		name   string
		engine mapreduce.Engine
	}{
		{"local", &mapreduce.LocalEngine{Parallelism: 3}},
		{"rpcmr", master},
	}

	type observed struct {
		output   []mapreduce.Pair
		counters map[string]int64
	}
	results := make(map[string]observed)
	for _, rc := range runners {
		res, err := rc.engine.Run(context.Background(), makeJob(), input)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		out := append([]mapreduce.Pair(nil), res.Output...)
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		results[rc.name] = observed{output: out, counters: res.Counters.Snapshot()}
	}

	local, rpc := results["local"], results["rpcmr"]
	if local.counters[mapreduce.CtrParallelGroups] == 0 {
		t.Fatal("parallel threshold engaged no reducer groups")
	}
	stripWireCounters(local.counters)
	stripWireCounters(rpc.counters)
	if !reflect.DeepEqual(local.counters, rpc.counters) {
		t.Errorf("counter snapshots differ:\n local: %v\n rpcmr: %v", local.counters, rpc.counters)
	}
	if len(local.output) != len(rpc.output) {
		t.Fatalf("output sizes differ: local %d, rpcmr %d", len(local.output), len(rpc.output))
	}
	for i := range local.output {
		if local.output[i].Key != rpc.output[i].Key || !reflect.DeepEqual(local.output[i].Value, rpc.output[i].Value) {
			t.Fatalf("output record %d differs between engines", i)
		}
	}
}

// TestConformanceCompactScan runs the density job with the compact f32 scan
// path enabled (mr.scan.precision rides Conf like every other knob). Remote
// workers must take the compact path (kernels.compact.evals > 0 on both
// engines), the local and distributed runs must agree byte-for-byte, and —
// the actual correctness claim — the compact output values must be
// byte-identical to a plain float64 baseline run.
func TestConformanceCompactScan(t *testing.T) {
	ds := dataset.Blobs("conformance-compact", 600, 2, 4, 100, 3, 11)
	input := core.InputPairs(ds)

	baseConf := mapreduce.Conf{}
	baseConf.SetFloat("ddp.dc", 4.0)
	baseConf.SetInt("ddp.dim", ds.Dim())
	baseConf.SetInt("ddp.lsh.m", 4)
	baseConf.SetInt("ddp.lsh.pi", 2)
	baseConf.SetFloat("ddp.lsh.w", 12)
	baseConf.SetInt64("ddp.seed", 7)
	compactConf := baseConf.Clone()
	compactConf[kernels.ConfScanPrecision] = kernels.ScanF32

	makeJob := func(conf mapreduce.Conf) *mapreduce.Job {
		j := core.JobFactories()[core.JobLSHRho](conf.Clone())
		j.NumMaps = 4
		j.NumReduces = 3
		return j
	}

	master, _ := startCluster(t, 3)
	runners := []struct {
		name   string
		engine mapreduce.Engine
		conf   mapreduce.Conf
	}{
		{"local-f64", &mapreduce.LocalEngine{Parallelism: 3}, baseConf},
		{"local-f32", &mapreduce.LocalEngine{Parallelism: 3}, compactConf},
		{"rpcmr-f32", master, compactConf},
	}

	type observed struct {
		output   []mapreduce.Pair
		counters map[string]int64
	}
	results := make(map[string]observed)
	for _, rc := range runners {
		res, err := rc.engine.Run(context.Background(), makeJob(rc.conf), input)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		out := append([]mapreduce.Pair(nil), res.Output...)
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		results[rc.name] = observed{output: out, counters: res.Counters.Snapshot()}
	}

	local, rpc := results["local-f32"], results["rpcmr-f32"]
	if local.counters[mapreduce.CtrCompactEvals] == 0 {
		t.Fatal("compact scan path never engaged on the local engine")
	}
	if rpc.counters[mapreduce.CtrCompactEvals] == 0 {
		t.Fatal("compact scan path never engaged on the rpcmr cluster")
	}
	stripWireCounters(local.counters)
	stripWireCounters(rpc.counters)
	if !reflect.DeepEqual(local.counters, rpc.counters) {
		t.Errorf("counter snapshots differ:\n local: %v\n rpcmr: %v", local.counters, rpc.counters)
	}
	// Compact vs exact: same keys, same bytes — the re-rank contract.
	for _, name := range []string{"local-f32", "rpcmr-f32"} {
		got := results[name]
		want := results["local-f64"]
		if len(got.output) != len(want.output) {
			t.Fatalf("%s: output size %d differs from f64 baseline %d", name, len(got.output), len(want.output))
		}
		for i := range want.output {
			if got.output[i].Key != want.output[i].Key || !reflect.DeepEqual(got.output[i].Value, want.output[i].Value) {
				t.Fatalf("%s: output record %d differs from f64 baseline", name, i)
			}
		}
	}
}
