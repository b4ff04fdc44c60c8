package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
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
	cfg = filled(cfg)
	l := lsh.NewLayouts(ds.Dim(), cfg.M, cfg.Pi, cfg.W, cfg.Seed)
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
			left += int64(c.ds.N()*filled(c.cfg).M) - want
		})
	}
	if left == 0 {
		t.Fatal("no fixture leaves a copy out: the plan goes unexercised")
	}
}

// TestPlanRhoWorkersAgree: planRho plans each layout on its own goroutine,
// grouping the layout's points by bucket in that goroutine's scratch, and
// builds its index on every core; the row keys, every point's ship mask and
// the unshipped-pair record are the same at any GOMAXPROCS — on blobs and
// on the doubled tie lattice, at M = 2, 4 and 10.
func TestPlanRhoWorkersAgree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		ds   *points.Dataset
		cfg  LSHConfig
	}{
		{"blobs", dataset.Blobs("blobs", 600, 4, 6, 40, 2, 1), LSHConfig{Pi: 3, W: 8, Config: Config{Dc: 3, Seed: 1}}},
		{"ties", tieLattice(), LSHConfig{Pi: 3, W: 4, Config: Config{Dc: 1.5, Seed: 1}}},
	} {
		for _, m := range []int{2, 4, 10} {
			c.cfg.M = m
			conf := lshConf(c.ds, c.cfg)
			l, err := layoutsOf(conf)
			if err != nil {
				t.Fatal(err)
			}
			var want *shipPlan
			var wantKeys []int32
			for _, procs := range []int{1, 2, 3} {
				runtime.GOMAXPROCS(procs)
				rowKeys, plan, err := planRho(InputPairs(c.ds), l, conf)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, wantKeys = plan, rowKeys
					copies := 0
					for _, b := range plan.masks {
						copies += bits.OnesCount8(b)
					}
					if n := c.ds.N(); copies <= n || copies >= n*m {
						t.Fatalf("%s M=%d: %d copies of %d points planned: the plan drops none or ships no later one", c.name, m, copies, n)
					}
					continue
				}
				if !slices.Equal(rowKeys, wantKeys) || !bytes.Equal(plan.masks, want.masks) || !bytes.Equal(plan.unsent, want.unsent) {
					t.Fatalf("%s M=%d: the plan at GOMAXPROCS %d differs from the one at 1", c.name, m, procs)
				}
			}
		}
	}
}

// tieLattice is a 16 × 12 integer lattice stored twice, the first copy's IDs
// falling as either coordinate grows and the second's rising: every squared
// distance is an integer and every point has a twin at 0, so the (d², lowest
// ID) rules decide δ̂ and the upslope.
func tieLattice() *points.Dataset {
	const w, h = 16, 12
	vs := make([]points.Vector, 2*w*h)
	for i := range w * h {
		vs[i] = points.Vector{float64(w - 1 - i%w), float64(h - 1 - i/w)}
		vs[2*w*h-1-i] = slices.Clone(vs[i])
	}
	return points.FromVectors("ties", vs)
}

// shipEverywhere returns the δ job's input in without its plan: every
// certified point's mask lists all m layouts, and no unshipped-pair record
// follows.
func shipEverywhere(t *testing.T, in []mapreduce.Pair, m int) []mapreduce.Pair {
	t.Helper()
	all := make([]byte, (m+7)/8)
	for l := range m {
		all[l/8] |= 1 << (l % 8)
	}
	var out []mapreduce.Pair
	for _, p := range in {
		if p.Key == unshippedKey {
			continue
		}
		_, rest, err := points.DecodeRhoPoint(p.Value)
		if err != nil {
			t.Fatal(err)
		}
		certified, _, err := points.ShipMask(rest)
		if err != nil {
			t.Fatal(err)
		}
		v := p.Value
		if certified {
			v = append(slices.Clip(v[:len(v)-len(rest)]), all...)
		}
		out = append(out, mapreduce.Pair{Value: v})
	}
	return out
}

// TestDeltaShipPlanMatchesUnplanned is the δ mirror of
// TestRhoShipPlanMatchesUnplanned: on blobs and the doubled tie lattice, on
// the local engine at P = 1 and 3 and a 3-worker rpcmr cluster, the δ job on
// shipRows' input gives the open points the δ̂ and upslope, bit for bit,
// that it gives them when every certified point travels to all its buckets,
// counts the same certified points, and its evaluated + skipped pairs sum to
// the same count. Some fixture must leave copies out, and some points open.
func TestDeltaShipPlanMatchesUnplanned(t *testing.T) {
	engines := []mapreduce.Engine{&mapreduce.LocalEngine{Parallelism: 1}, &mapreduce.LocalEngine{Parallelism: 3}}
	if !testing.Short() {
		rpcmr.RegisterJobs(JobFactories())
		cluster, err := rpcmr.NewMaster("127.0.0.1:0")
		if err != nil {
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
		engines = append(engines, cluster)
	}
	var left, opened int64
	for _, c := range []struct {
		name string
		ds   *points.Dataset
		cfg  LSHConfig
	}{
		{"blobs", dataset.Blobs("blobs", 600, 4, 6, 40, 2, 1), LSHConfig{M: 10, Pi: 3, W: 8, Config: Config{Dc: 3, Seed: 1}}},
		{"ties", tieLattice(), LSHConfig{M: 10, Pi: 3, W: 4, Config: Config{Dc: 1.5, Seed: 1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds, n := c.ds, c.ds.N()
			conf := lshConf(ds, c.cfg)
			l, err := layoutsOf(conf)
			if err != nil {
				t.Fatal(err)
			}
			rowKeys, plan, err := planRho(InputPairs(ds), l, conf)
			if err != nil {
				t.Fatal(err)
			}
			for ei, eng := range engines {
				run := func(job *mapreduce.Job, in []mapreduce.Pair) *mapreduce.Result {
					res, err := eng.Run(context.Background(), job, in)
					if err != nil {
						t.Fatalf("engine %d: %s: %v", ei, job.Name, err)
					}
					return res
				}
				rhoOut := run(LSHRhoAggJob(conf.Clone()), run(LSHRhoJob(conf.Clone()), plan.rhoInput(InputPairs(ds))).Output).Output
				rho, near, err := decodeRhoValues(rhoOut, n)
				if err != nil {
					t.Fatal(err)
				}
				delta, upslope, open := certify(rho, near)
				planned := shipRows(ds, rowKeys, rho, open)
				type deltaRun struct {
					delta    []float64
					upslope  []int32
					counters map[string]int64
				}
				var runs [2]deltaRun
				for x, in := range [][]mapreduce.Pair{planned, shipEverywhere(t, planned, l.M())} {
					res := run(LSHDeltaJob(conf.Clone()), in)
					r := deltaRun{slices.Clone(delta), slices.Clone(upslope), res.Counters.Snapshot()}
					if err := decodeOpenDeltas(run(DeltaAggJob(JobLSHDelAgg, mapreduce.Conf{}), res.Output).Output, r.delta, r.upslope, open); err != nil {
						t.Fatalf("engine %d: %v", ei, err)
					}
					runs[x] = r
				}
				got, all := runs[0], runs[1]
				requireSameBits(t, fmt.Sprintf("engine %d: delta", ei), got.delta, all.delta, got.upslope, all.upslope)
				pairs := func(c map[string]int64) int64 {
					return c[mapreduce.CtrDistanceComputations] + c[CtrPairsPruned] + c[CtrPairsSkipped]
				}
				if pairs(got.counters) != pairs(all.counters) || got.counters[CtrDeltaCertified] != all.counters[CtrDeltaCertified] {
					t.Fatalf("engine %d: %d pairs and %d certified planned, %d and %d with every copy shipped", ei,
						pairs(got.counters), got.counters[CtrDeltaCertified], pairs(all.counters), all.counters[CtrDeltaCertified])
				}
				out, nOpen := all.counters[mapreduce.CtrMapOutputRecords]-got.counters[mapreduce.CtrMapOutputRecords], int64(0)
				for _, o := range open {
					if o {
						nOpen++
					}
				}
				if ei == 0 {
					t.Logf("%d of %d points open, %d copies left out", nOpen, n, out)
				}
				left, opened = left+out, opened+nOpen
			}
		})
	}
	if left <= 0 || opened == 0 {
		t.Fatalf("the plans left %d copies out and %d points open: both must be exercised", left, opened)
	}
}
