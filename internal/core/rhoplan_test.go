package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/points"
)

// The ρ ship plan (planRho) sends a point to a later layout's bucket only
// when its run there keeps a pair. These tests hold it to "the ρ job emits
// and counts what it does with every copy shipped", and hold the copies it
// ships to a brute force over Layouts.Keys.

// rhoJobRun is one run of the ρ job: its records, sorted, and its counters.
// A reducer emits in its row order, which the runs left out can reorder, so
// runs are compared as sorted record lists.
type rhoJobRun struct {
	out      []mapreduce.Pair
	counters map[string]int64
}

func runRhoJob(t *testing.T, eng mapreduce.Engine, conf mapreduce.Conf, in []mapreduce.Pair) rhoJobRun {
	t.Helper()
	res, err := eng.Run(context.Background(), LSHRhoJob(conf.Clone()), in)
	if err != nil {
		t.Fatal(err)
	}
	out := slices.Clone(res.Output)
	slices.SortFunc(out, func(a, b mapreduce.Pair) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return bytes.Compare(a.Value, b.Value)
	})
	return rhoJobRun{out: out, counters: res.Counters.Snapshot()}
}

// shipOracle counts, from Layouts.Keys strings and coordinates alone, the
// copies the ρ job should ship: every point to layout 0, and to its bucket in
// a later layout m when its run there — the bucket's points with its keys
// under layouts 0 … m−1 — and some run sharing none of those keys have
// bounding boxes that no axis separates by d_c or more.
func shipOracle(ds *points.Dataset, cfg LSHConfig) int64 {
	l := lsh.NewLayouts(ds.Dim(), cfg.m(), cfg.pi(), cfg.W, cfg.Seed)
	keys := make([][]string, ds.N())
	for i, p := range ds.Points {
		keys[i] = l.Keys(p.Pos)
	}
	dc2 := cfg.Dc * cfg.Dc
	copies := int64(ds.N())
	for m := 1; m < l.M(); m++ {
		buckets := map[string][]int{}
		for i := range keys {
			buckets[keys[i][m]] = append(buckets[keys[i][m]], i)
		}
		for _, members := range buckets {
			byPrefix := map[string][]int{}
			for _, i := range members {
				prefix := fmt.Sprintf("%q", keys[i][:m])
				byPrefix[prefix] = append(byPrefix[prefix], i)
			}
			var runs [][]int
			for _, run := range byPrefix {
				runs = append(runs, run)
			}
			lo, hi := make([]points.Vector, len(runs)), make([]points.Vector, len(runs))
			for g, run := range runs {
				lo[g], hi[g] = ds.Points[run[0]].Pos.Clone(), ds.Points[run[0]].Pos.Clone()
				for _, i := range run {
					for t, v := range ds.Points[i].Pos {
						lo[g][t], hi[g][t] = math.Min(lo[g][t], v), math.Max(hi[g][t], v)
					}
				}
			}
			keep := make([]bool, len(runs))
			for g := range runs {
				for h := range runs {
					shares := false
					for j := 0; j < m; j++ {
						shares = shares || keys[runs[g][0]][j] == keys[runs[h][0]][j]
					}
					separated := false
					for t := range lo[g] {
						gap := math.Max(lo[h][t]-hi[g][t], lo[g][t]-hi[h][t])
						separated = separated || gap > 0 && gap*gap >= dc2
					}
					if !shares && !separated {
						keep[g] = true
					}
				}
			}
			for g, run := range runs {
				if keep[g] {
					copies += int64(len(run))
				}
			}
		}
	}
	return copies
}

// TestRhoShipPlanMatchesUnplanned: on the runs-apart edge cases and the
// pair-once suite, on the local engine and a 3-worker rpcmr cluster, the ρ
// job on planRho's input emits the records it emits on InputPairs and counts
// the same evaluated, pruned and skipped pairs, while shipping exactly the
// copies shipOracle counts. Some fixture must leave copies out.
func TestRhoShipPlanMatchesUnplanned(t *testing.T) {
	var cluster *rpcmr.Master
	if !testing.Short() {
		rpcmr.RegisterJobs(JobFactories())
		var err error
		if cluster, err = rpcmr.NewMaster("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		for i := 0; i < 3; i++ {
			w, err := rpcmr.StartWorker(cluster.Addr(), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
		}
	}
	edges := runsApartCases()
	var left int64
	for ci, c := range append(edges, pairOnceCases()...) {
		t.Run(c.name, func(t *testing.T) {
			conf := lshConf(c.ds, c.cfg)
			l, err := layoutsOf(conf)
			if err != nil {
				t.Fatal(err)
			}
			_, plan, err := planRho(InputPairs(c.ds), l, conf)
			if err != nil {
				t.Fatal(err)
			}
			want := shipOracle(c.ds, c.cfg)
			engines := []mapreduce.Engine{c.localEngine()}
			if cluster != nil && (ci < len(edges) || ci%3 == 0) {
				engines = append(engines, cluster)
			}
			for ei, eng := range engines {
				all := runRhoJob(t, eng, conf, InputPairs(c.ds))
				got := runRhoJob(t, eng, conf, plan.rhoInput(InputPairs(c.ds)))
				if !reflect.DeepEqual(got.out, all.out) {
					t.Fatalf("engine %d: %d records from the planned input, %d with every copy shipped, or their bytes differ",
						ei, len(got.out), len(all.out))
				}
				for _, ctr := range []string{mapreduce.CtrDistanceComputations, CtrPairsPruned, CtrPairsSkipped} {
					if got.counters[ctr] != all.counters[ctr] {
						t.Fatalf("engine %d: %s %d planned, %d with every copy shipped", ei, ctr, got.counters[ctr], all.counters[ctr])
					}
				}
				if n := got.counters[mapreduce.CtrShuffleRecords]; n != want {
					t.Fatalf("engine %d: the planned job shipped %d copies, the oracle %d (of %d)",
						ei, n, want, all.counters[mapreduce.CtrShuffleRecords])
				}
			}
			left += int64(c.ds.N()*c.cfg.m()) - want
		})
	}
	if left == 0 {
		t.Fatal("no fixture leaves a copy out: the plan goes unexercised")
	}
}
