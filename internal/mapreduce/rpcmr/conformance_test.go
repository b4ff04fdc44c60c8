package rpcmr

import (
	"context"
	"maps"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/obs"
	"repro/internal/points"
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

// certifiedDeltaPairs replays LSH-DDP's δ̂ certificate by brute force for
// the ρ̂ a run produced — a point's 8 (core's list length) nearest
// co-bucketed points within dc, in (d², ID) order, decide its δ̂ when one of
// them is denser — and the shipping rule: an open point travels to every
// bucket, a certified one to a bucket only when it is denser than an open
// point there. It returns the pairs the δ job evaluates: those whose two
// points both travel to the pair's lowest shared layout.
func certifiedDeltaPairs(ds *points.Dataset, keys [][]string, dc float64, rho []float64) (evaluated int64) {
	const k = 8
	n, m := ds.N(), len(keys[0])
	shares := func(i, j int) bool {
		for l := range keys[i] {
			if keys[i][l] == keys[j][l] {
				return true
			}
		}
		return false
	}
	open := make([]bool, n)
	for i := range open {
		var near []points.Neighbor
		for j := range n {
			if d2 := points.SqDist(ds.Points[i].Pos, ds.Points[j].Pos); j != i && shares(i, j) && d2 < dc*dc {
				near = append(near, points.Neighbor{ID: int32(j), D2: d2})
			}
		}
		sort.Slice(near, func(a, b int) bool {
			return near[a].D2 < near[b].D2 || near[a].D2 == near[b].D2 && near[a].ID < near[b].ID
		})
		open[i] = true
		for _, e := range near[:min(len(near), k)] {
			if dp.DenserVals(rho[e.ID], rho[i], e.ID, int32(i)) {
				open[i] = false
				break
			}
		}
	}
	shipped := func(i, l int) bool {
		for u := range n {
			if open[u] && keys[u][l] == keys[i][l] && (u == i || dp.DenserVals(rho[i], rho[u], int32(i), int32(u))) {
				return true
			}
		}
		return false
	}
	for i := range n {
		for j := 0; j < i; j++ {
			for l := range m {
				if keys[i][l] == keys[j][l] {
					if shipped(i, l) && shipped(j, l) {
						evaluated++
					}
					break
				}
			}
		}
	}
	return evaluated
}

// TestConformanceDistanceCount pins dp.distance.computations — which every
// ρ / δ reducer adds by hand from what kernels.Rho / kernels.Delta return —
// to Σ Block.Pairs() of the lists the reducers walk, on both engines and
// from an oracle that knows nothing of blocks: each Basic-DDP pair job
// evaluates every unordered pair once, the LSH-DDP ρ job evaluates or
// prunes exactly the distinct co-bucketed pairs — pruning no more than lie
// at d_c or beyond, the same number on both engines — and the δ job
// evaluates exactly those of them the ρ pass's certificate leaves to it, the
// rest of every bucket's pairs going to dp.lsh.pairs.skipped.
func TestConformanceDistanceCount(t *testing.T) {
	ds := dataset.Blobs("conformance-count", 400, 2, 4, 100, 3, 11)
	const m, pi, w, seed, dc = 4, 2, 12.0, 7, 4.0
	layouts := lsh.NewLayouts(ds.Dim(), m, pi, w, seed)
	keys := make([][]string, ds.N())
	for i, p := range ds.Points {
		keys[i] = layouts.Keys(p.Pos)
	}
	// co-bucketed pairs, those of them within d_c, and (pair, layout) incidences
	var distinct, within, slots int64
	for i := range keys {
		for j := 0; j < i; j++ {
			shared := 0
			for l := range keys[i] {
				if keys[i][l] == keys[j][l] {
					shared++
				}
			}
			if shared > 0 {
				distinct++
				slots += int64(shared)
				if points.SqDist(ds.Points[i].Pos, ds.Points[j].Pos) < dc*dc {
					within++
				}
			}
		}
	}
	if slots <= distinct {
		t.Fatalf("fixture shares too little: %d pairs in %d slots", distinct, slots)
	}
	all := int64(ds.N()) * int64(ds.N()-1) / 2
	want := map[string][2]int64{ // job → evaluated + pruned, evaluated + pruned + skipped
		core.JobBasicRho: {all, all},
		core.JobBasicDel: {all, all},
		core.JobLSHRho:   {distinct, slots},
	}

	master, _ := startCluster(t, 3)
	rhoPruned := map[string]int64{} // engine → the ρ job's pruned pairs
	for _, rc := range []struct {
		name   string
		engine mapreduce.Engine
	}{
		{"local", &mapreduce.LocalEngine{Parallelism: 3}},
		{"rpcmr", master},
	} {
		t.Run(rc.name, func(t *testing.T) {
			cfg := core.Config{Engine: rc.engine, Dc: dc, Seed: seed}
			basic, err := core.RunBasicDDP(context.Background(), ds, core.BasicConfig{Config: cfg, BlockSize: 90})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{Config: cfg, M: m, Pi: pi, W: w})
			if err != nil {
				t.Fatal(err)
			}
			delta := certifiedDeltaPairs(ds, keys, cfg.Dc, approx.Rho)
			if delta == 0 || delta >= distinct {
				t.Fatalf("fixture leaves the δ job %d of the %d co-bucketed pairs", delta, distinct)
			}
			want := maps.Clone(want)
			want[core.JobLSHDel] = [2]int64{delta, slots}
			seen := 0
			for _, j := range append(basic.Stats.Jobs, approx.Stats.Jobs...) {
				w, ok := want[j.Name]
				if !ok {
					continue
				}
				seen++
				ev, pr, sk := j.Counters[mapreduce.CtrDistanceComputations], j.Counters[core.CtrPairsPruned], j.Counters[core.CtrPairsSkipped]
				if ev+pr != w[0] || ev+pr+sk != w[1] {
					t.Fatalf("%s: evaluated %d pruned %d skipped %d, want %d evaluated or pruned and %d skipped",
						j.Name, ev, pr, sk, w[0], w[1]-w[0])
				}
				switch {
				case j.Name == core.JobLSHRho && pr > distinct-within:
					t.Fatalf("%s: pruned %d pairs, only %d co-bucketed ones lie at d_c or beyond", j.Name, pr, distinct-within)
				case j.Name == core.JobLSHRho:
					rhoPruned[rc.name] = pr
				case pr != 0:
					t.Fatalf("%s: pruned %d pairs, want none", j.Name, pr)
				}
			}
			if seen != len(want) {
				t.Fatalf("saw %d of the %d pair jobs", seen, len(want))
			}
		})
	}
	if rhoPruned["local"] == 0 || rhoPruned["local"] != rhoPruned["rpcmr"] {
		t.Fatalf("ρ job pruned %v pairs per engine: want the same positive count on both", rhoPruned)
	}
}
