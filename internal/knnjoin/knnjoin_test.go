package knnjoin_test

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
	"repro/internal/points"
)

// naiveKNN is the single-machine oracle: for every query the full scan of
// S sorted by (squared distance, base ID), truncated to k. The distance
// accumulates term by term, which is bit-identical to the kernels' sqDist,
// so comparisons against the MapReduce result can demand
// exact equality. A base row at a non-finite distance is no neighbour, as
// in the kernels' top-k scan.
func naiveKNN(R, S *points.Dataset, k int) [][]knnjoin.Neighbor {
	out := make([][]knnjoin.Neighbor, R.N())
	for qi, q := range R.Points {
		all := make([]knnjoin.Neighbor, 0, S.N())
		for _, s := range S.Points {
			var d2 float64
			for j := range q.Pos {
				d := q.Pos[j] - s.Pos[j]
				d2 += d * d
			}
			if d2 < math.Inf(1) {
				all = append(all, knnjoin.Neighbor{ID: s.ID, D2: d2})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			return all[i].D2 < all[j].D2 ||
				(all[i].D2 == all[j].D2 && all[i].ID < all[j].ID)
		})
		if len(all) > k {
			all = all[:k]
		}
		out[qi] = all
	}
	return out
}

func localSession() *dag.Session {
	return dag.NewSession(&mapreduce.LocalEngine{Parallelism: 4}, dag.Options{})
}

func requireSameNeighbors(t *testing.T, got, want [][]knnjoin.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("query count: got %d want %d", len(got), len(want))
	}
	for qid := range want {
		if len(got[qid]) != len(want[qid]) {
			t.Fatalf("query %d: got %d neighbors want %d", qid, len(got[qid]), len(want[qid]))
		}
		for i := range want[qid] {
			if got[qid][i] != want[qid][i] {
				t.Fatalf("query %d entry %d: got %+v want %+v", qid, i, got[qid][i], want[qid][i])
			}
		}
	}
}

func splitBlobs(t *testing.T, name string, n, dim, nR int, seed int64) (*points.Dataset, *points.Dataset) {
	t.Helper()
	ds := dataset.Blobs(name, n, dim, 4, 120, 3, seed)
	R, S, err := dataset.Split(ds, nR, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return R, S
}

func TestJoinMatchesOracleLocal(t *testing.T) {
	R, S := splitBlobs(t, "knn-oracle", 700, 2, 150, 21)
	want := naiveKNN(R, S, 5)
	for _, tc := range []struct {
		name string
		cfg  knnjoin.Config
	}{
		{"f64", knnjoin.Config{Seed: 3}},
		{"narrow-m", knnjoin.Config{Seed: 5, M: 2, Pi: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := knnjoin.Run(context.Background(), localSession(), R, S, 5, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameNeighbors(t, res.Neighbors, want)
		})
	}
}

// TestExactMatchesOracle holds RunExact to the naive scan on each shape of
// the exact job: one group (|R| ≤ |S|); many groups (|R| ≫ |S|, the
// scoring shape); k > |S|; a duplicate-heavy base whose ties fall at the
// k-th distance; and base points with a non-finite coordinate, which lie at
// a non-finite distance and are no neighbour. The job runs P = max(1, |R|/|S|)
// groups, answers every query exactly once, and flags none.
func TestExactMatchesOracle(t *testing.T) {
	R, S := splitBlobs(t, "knn-exact", 500, 3, 120, 7)
	many, few := splitBlobs(t, "knn-exact-few", 420, 3, 400, 8)
	// Twelve distinct positions under 120 base points: ten copies of each,
	// so the k-th distance ties and the lowest ID must win.
	dupS := dataset.Blobs("knn-exact-dups", 120, 3, 3, 60, 2, 9)
	for i := range dupS.Points {
		copy(dupS.Points[i].Pos, dupS.Points[i%12].Pos)
	}
	inf := make([]points.Vector, 0, few.N()+2)
	for _, p := range few.Points {
		inf = append(inf, p.Pos)
	}
	inf = append(inf, points.Vector{math.Inf(1), 0, 0}, points.Vector{0, math.Inf(-1), 1}, points.Vector{1, 1, math.NaN()})
	infS := points.FromVectors("knn-exact-inf", inf)
	for _, tc := range []struct {
		name   string
		R, S   *points.Dataset
		k      int
		groups int64
	}{
		{"one-group-k1", R, S, 1, 1},
		{"one-group-k4", R, S, 4, 1},
		{"one-group-k11", R, S, 11, 1},
		{"many-groups", many, few, 3, 20},
		{"k-above-base", many, few, few.N() + 5, 20},
		{"duplicates", R, dupS, 15, 1},
		{"non-finite-coordinate", many, infS, infS.N(), 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := knnjoin.RunExact(context.Background(), localSession(), tc.R, tc.S, tc.k, knnjoin.Config{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameNeighbors(t, res.Neighbors, naiveKNN(tc.R, tc.S, tc.k))
			if res.Fallbacks != 0 {
				t.Fatalf("exact join reported %d fallbacks", res.Fallbacks)
			}
			if len(res.Stats.Jobs) != 1 {
				t.Fatalf("%d jobs, want the exact job alone", len(res.Stats.Jobs))
			}
			ctrs := res.Stats.Jobs[0].Counters
			if g := ctrs[mapreduce.CtrReduceInputGroups]; g != tc.groups {
				t.Fatalf("%d groups for %d queries and %d base points, want %d", g, tc.R.N(), tc.S.N(), tc.groups)
			}
			if out := ctrs[mapreduce.CtrReduceOutputRecords]; out != int64(tc.R.N()) || ctrs[knnjoin.CtrFallbacks] != 0 {
				t.Fatalf("%d results, %d flagged, for %d queries", out, ctrs[knnjoin.CtrFallbacks], tc.R.N())
			}
		})
	}
}

// TestKLargerThanBase pins the |S| < k contract: every query gets all of S
// and the exact pass resolves the short lists without flagging fallbacks
// forever.
func TestKLargerThanBase(t *testing.T) {
	R, S := splitBlobs(t, "knn-small", 40, 2, 30, 9)
	res, err := knnjoin.Run(context.Background(), localSession(), R, S, S.N()+5, knnjoin.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireSameNeighbors(t, res.Neighbors, naiveKNN(R, S, S.N()+5))
	for qid, ns := range res.Neighbors {
		if len(ns) != S.N() {
			t.Fatalf("query %d: %d neighbors, want all %d of S", qid, len(ns), S.N())
		}
	}
}

// TestNarrowWidthForcesFallbacks pins the exact-fallback path: a slot
// width far below the k-th-neighbor distance makes the guarantee radius
// reject (almost) every bucketed answer, the knn.exact.fallbacks counter
// fires, and the final result is still bit-identical to the oracle.
func TestNarrowWidthForcesFallbacks(t *testing.T) {
	R, S := splitBlobs(t, "knn-fallback", 400, 2, 80, 13)
	sess := localSession()
	res, err := knnjoin.Run(context.Background(), sess, R, S, 3, knnjoin.Config{Seed: 4, W: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == 0 {
		t.Fatal("narrow width produced no fallbacks; the exact pass went untested")
	}
	var ctr int64
	for _, j := range res.Stats.Jobs {
		ctr += j.Counters[knnjoin.CtrFallbacks]
	}
	if ctr != int64(res.Fallbacks) {
		t.Fatalf("knn.exact.fallbacks counter %d, driver saw %d", ctr, res.Fallbacks)
	}
	requireSameNeighbors(t, res.Neighbors, naiveKNN(R, S, 3))
}

// TestWideWidthCertifies is the other side: a generous width must certify
// at least some queries (otherwise the bucketed pass is dead weight), and
// the candidates counter must show the bucketed pass scanned fewer pairs
// than the naive |R|·|S| product... per layout replica.
func TestWideWidthCertifies(t *testing.T) {
	R, S := splitBlobs(t, "knn-wide", 600, 2, 120, 31)
	res, err := knnjoin.Run(context.Background(), localSession(), R, S, 3, knnjoin.Config{Seed: 6, Accuracy: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == len(res.Neighbors) {
		t.Fatal("every query fell back; the guarantee radius never certified anything")
	}
	requireSameNeighbors(t, res.Neighbors, naiveKNN(R, S, 3))
	var cand int64
	for _, j := range res.Stats.Jobs {
		cand += j.Counters[knnjoin.CtrCandidates]
	}
	if cand == 0 {
		t.Fatal("knn.candidates counter never fired")
	}
}

func sumCounter(stats []mapreduce.JobStats, name string) int64 {
	var s int64
	for _, j := range stats {
		s += j.Counters[name]
	}
	return s
}

// TestSweepPrunes: on clustered data the reducers' box-tree walk must
// evaluate far fewer distances than the query × base-row pairs that meet in
// a reducer — on the exact pass that product is |R|·|S| whatever the
// partitioning — and every list must still equal the oracle's. The tree
// evaluates 7.6 % of the pairs here; the one-axis coordinate sweep it
// replaced evaluated 23.3 %, above the bar of an eighth.
func TestSweepPrunes(t *testing.T) {
	R, S := splitBlobs(t, "knn-sweep", 2400, 3, 200, 51)
	res, err := knnjoin.RunExact(context.Background(), localSession(), R, S, 5, knnjoin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameNeighbors(t, res.Neighbors, naiveKNN(R, S, 5))
	pairs := int64(R.N()) * int64(S.N())
	cand := sumCounter(res.Stats.Jobs, knnjoin.CtrCandidates)
	if cand <= 0 || 8*cand >= pairs {
		t.Fatalf("%s = %d for %d query-row pairs: the tree did not prune", knnjoin.CtrCandidates, cand, pairs)
	}
	if dc := sumCounter(res.Stats.Jobs, mapreduce.CtrDistanceComputations); dc != cand {
		t.Fatalf("%s = %d, %s = %d", mapreduce.CtrDistanceComputations, dc, knnjoin.CtrCandidates, cand)
	}
	if boxes := sumCounter(res.Stats.Jobs, knnjoin.CtrBoxChecks); boxes <= 0 {
		t.Fatalf("%s = %d: no box bound was computed", knnjoin.CtrBoxChecks, boxes)
	}
}

// TestClusterConformance pins the join bit-identical across the local
// engine at parallelism 1 and 4, a 3-worker rpcmr cluster, and the naive
// oracle — outputs and the cost counters both. No job's reduce count is
// pinned: the candidates job groups by bucket and the exact job by its own
// group count, so no count may depend on the engine's partitions.
func TestClusterConformance(t *testing.T) {
	rpcmr.RegisterJobs(knnjoin.JobFactories())
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

	R, S := splitBlobs(t, "knn-cluster", 500, 2, 100, 41)
	run := func(cfg knnjoin.Config) func(*dag.Session) (*knnjoin.Result, []*points.Dataset, error) {
		return func(sess *dag.Session) (*knnjoin.Result, []*points.Dataset, error) {
			res, err := knnjoin.Run(context.Background(), sess, R, S, 4, cfg)
			return res, []*points.Dataset{R, S}, err
		}
	}
	for _, tc := range []struct {
		name string
		join func(*dag.Session) (*knnjoin.Result, []*points.Dataset, error)
	}{
		{"f64", run(knnjoin.Config{Seed: 8})},
		{"fallback-heavy", run(knnjoin.Config{Seed: 8, W: 1e-3})},
		// 400 queries against 100 base points: four groups.
		{"exact", func(sess *dag.Session) (*knnjoin.Result, []*points.Dataset, error) {
			res, err := knnjoin.RunExact(context.Background(), sess, S, R, 4, knnjoin.Config{})
			return res, []*points.Dataset{S, R}, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var results []*knnjoin.Result
			var sides []*points.Dataset
			for _, sess := range []*dag.Session{
				dag.NewSession(&mapreduce.LocalEngine{Parallelism: 1}, dag.Options{}),
				localSession(),
				dag.NewSession(master, dag.Options{}),
			} {
				res, ds, err := tc.join(sess)
				if err != nil {
					t.Fatal(err)
				}
				results, sides = append(results, res), ds
			}
			requireSameNeighbors(t, results[0].Neighbors, naiveKNN(sides[0], sides[1], 4))
			want := results[0]
			for i, got := range results[1:] {
				requireSameNeighbors(t, got.Neighbors, want.Neighbors)
				if got.Fallbacks != want.Fallbacks {
					t.Fatalf("engine %d: %d fallbacks, %d at parallelism 1", i+1, got.Fallbacks, want.Fallbacks)
				}
				for _, ctr := range []string{knnjoin.CtrCandidates, knnjoin.CtrBoxChecks, knnjoin.CtrFallbacks,
					knnjoin.CtrBaseDropped, mapreduce.CtrDistanceComputations, mapreduce.CtrShuffleBytes} {
					if g, w := sumCounter(got.Stats.Jobs, ctr), sumCounter(want.Stats.Jobs, ctr); g != w {
						t.Fatalf("engine %d: %s = %d, %d at parallelism 1", i+1, ctr, g, w)
					}
				}
			}
		})
	}
}

// TestSharedSessionStatsAreOwn: the join takes the caller's session, and a
// caller may run several joins on one. After a Run on a session, a second
// Run or RunExact on it must report exactly what it reports on a fresh
// session — its jobs and their counters, its dag.* deltas with the input it
// staged, its phases (wall times aside) — with nothing of the first join in
// it, even though both staged the same R and S.
func TestSharedSessionStatsAreOwn(t *testing.T) {
	ctx := context.Background()
	R, S := splitBlobs(t, "knn-shared", 500, 2, 100, 61)
	cfg := knnjoin.Config{Seed: 9}
	unwalled := func(pt obs.PhaseTotals) obs.PhaseTotals {
		out := obs.PhaseTotals{}
		for ph, st := range pt {
			st.Wall = 0
			out[ph] = st
		}
		return out
	}
	for _, tc := range []struct {
		name string
		join func(*dag.Session) (*knnjoin.Result, error)
	}{
		{"run", func(s *dag.Session) (*knnjoin.Result, error) { return knnjoin.Run(ctx, s, R, S, 4, cfg) }},
		{"exact", func(s *dag.Session) (*knnjoin.Result, error) { return knnjoin.RunExact(ctx, s, R, S, 4, cfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alone, err := tc.join(localSession())
			if err != nil {
				t.Fatal(err)
			}
			sess := localSession()
			// A first join on the same R and S, narrow enough that almost
			// every query takes the exact pass too.
			first, err := knnjoin.Run(ctx, sess, R, S, 4, knnjoin.Config{Seed: 9, W: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			shared, err := tc.join(sess)
			if err != nil {
				t.Fatal(err)
			}
			requireSameNeighbors(t, shared.Neighbors, alone.Neighbors)

			if len(shared.Stats.Jobs) != len(alone.Stats.Jobs) || len(sess.Jobs()) != len(first.Stats.Jobs)+len(shared.Stats.Jobs) {
				t.Fatalf("jobs: %d shared, %d alone, %d first, %d on the session",
					len(shared.Stats.Jobs), len(alone.Stats.Jobs), len(first.Stats.Jobs), len(sess.Jobs()))
			}
			for i, want := range alone.Stats.Jobs {
				got := shared.Stats.Jobs[i]
				if got.Name != want.Name || got.Records != want.Records || !reflect.DeepEqual(got.Counters, want.Counters) {
					t.Fatalf("job %d: shared session reports %+v, fresh session %+v", i, got, want)
				}
			}
			if shared.Stats.ShuffleBytes != alone.Stats.ShuffleBytes || shared.Stats.DistanceComputations != alone.Stats.DistanceComputations {
				t.Fatalf("totals: shared %d B / %d dist, alone %d B / %d dist", shared.Stats.ShuffleBytes,
					shared.Stats.DistanceComputations, alone.Stats.ShuffleBytes, alone.Stats.DistanceComputations)
			}
			if !reflect.DeepEqual(shared.Stats.Dag, alone.Stats.Dag) {
				t.Fatalf("dag counters: shared %v, alone %v", shared.Stats.Dag, alone.Stats.Dag)
			}
			if shared.Stats.Dag[dag.CtrStageBytes] == 0 {
				t.Fatal("the join's staged input is missing from its dag counters")
			}
			if got, want := unwalled(shared.Stats.Phases), unwalled(alone.Stats.Phases); !reflect.DeepEqual(got, want) {
				t.Fatalf("phases: shared %v, alone %v", got, want)
			}
			if shared.Stats.Phases[obs.PhaseReduce].Tasks == 0 {
				t.Fatalf("phases miss the jobs' spans: %v", shared.Stats.Phases)
			}
		})
	}
}

// TestExactRadiusRule: when the exact pass ships a fallback query's group
// only the base points inside the query's sampled k-distance box, Run still
// equals RunExact and the naive scan bit for bit — on fallback-heavy runs
// (a small pinned width), a sample drawn from a larger S, duplicate points,
// and an integer lattice whose k-th distances tie exactly at the box's
// radius, so the lowest IDs among the tied points must reach the group.
// Where no sampled radius bounds some fallback query's list — a query with
// a NaN coordinate, a base set whose sample holds fewer than k rows at a
// finite distance though S holds k, k above the sample's size — every group
// gets all of S, and the lists are still the naive scan's.
func TestExactRadiusRule(t *testing.T) {
	R, S := splitBlobs(t, "knn-radius", 2000, 2, 300, 71)
	bigR, bigS := splitBlobs(t, "knn-radius-big", 17100, 2, 100, 72)
	dups := dataset.Blobs("knn-radius-dups", 1600, 3, 4, 80, 3, 73)
	for i := range dups.Points {
		copy(dups.Points[i].Pos, dups.Points[i%300].Pos)
	}
	dupR, dupS, err := dataset.Split(dups, 250, 74)
	if err != nil {
		t.Fatal(err)
	}
	// A 40×40 lattice as S, and as R lattice points and the centres of its
	// cells: at k = 3 a lattice query's 2nd and 3rd neighbours tie with two
	// more at distance 1, a centre's 1st to 3rd with one more at √½.
	var lattice, queries []points.Vector
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			lattice = append(lattice, points.Vector{float64(x), float64(y)})
			if (x+2*y)%7 == 0 {
				queries = append(queries, points.Vector{float64(x), float64(y)}, points.Vector{float64(x) + 0.5, float64(y) + 0.5})
			}
		}
	}
	latR, latS := points.FromVectors("knn-lattice-R", queries), points.FromVectors("knn-lattice-S", lattice)
	nanR := points.FromVectors("knn-nan-R", append([]points.Vector{{math.NaN(), 1}}, vectors(R)[:60]...))
	// 40 000 base points of which only 10 are finite: the 16 384-point
	// sample misses some of them, so no query has 10 finite sample rows.
	var sparse []points.Vector
	for i := 0; i < 40000; i++ {
		if i%4000 == 0 {
			sparse = append(sparse, points.Vector{float64(i / 4000), 1})
		} else {
			sparse = append(sparse, points.Vector{float64(i), math.Inf(1)})
		}
	}
	sparseS := points.FromVectors("knn-sparse-S", sparse)
	for _, tc := range []struct {
		name    string
		R, S    *points.Dataset
		k       int
		cfg     knnjoin.Config
		noTable bool
	}{
		{"blobs", R, S, 5, knnjoin.Config{Seed: 3, W: 3}, false},
		{"sampled", bigR, bigS, 7, knnjoin.Config{Seed: 4, W: 2}, false},
		{"duplicates", dupR, dupS, 9, knnjoin.Config{Seed: 5, W: 4}, false},
		{"lattice", latR, latS, 3, knnjoin.Config{Seed: 6, W: 2}, false},
		{"lattice-all-fall-back", latR, latS, 5, knnjoin.Config{Seed: 6, W: 1e-3}, false},
		{"nan-query", nanR, S, 5, knnjoin.Config{Seed: 2, W: 1e-3}, true},
		{"sparse-finite-sample", points.FromVectors("knn-sparse-R", vectors(R)[:20]), sparseS, 10, knnjoin.Config{Seed: 2, W: 1e-3}, true},
		{"k-above-sample", R, points.FromVectors("knn-tiny-S", vectors(S)[:30]), 40, knnjoin.Config{Seed: 2, W: 1e-3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := knnjoin.Run(context.Background(), localSession(), tc.R, tc.S, tc.k, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := knnjoin.RunExact(context.Background(), localSession(), tc.R, tc.S, tc.k, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveKNN(tc.R, tc.S, tc.k)
			requireSameNeighbors(t, exact.Neighbors, want)
			requireSameNeighbors(t, res.Neighbors, want)
			if res.Fallbacks < tc.R.N()/10 {
				t.Fatalf("%d of %d queries fell back; the case is meant to be fallback-heavy", res.Fallbacks, tc.R.N())
			}
			for _, j := range res.Stats.Jobs {
				if j.Name != knnjoin.JobExact {
					continue
				}
				groups := max(1, res.Fallbacks/tc.S.N())
				dropped := j.Counters[knnjoin.CtrBaseDropped]
				shipped := j.Counters[mapreduce.CtrMapOutputRecords] - int64(res.Fallbacks)
				if tc.noTable && (dropped != 0 || shipped != int64(groups*tc.S.N())) {
					t.Fatalf("no radius bounds every list, yet the exact pass shipped %d and dropped %d base copies to %d groups of %d base points",
						shipped, dropped, groups, tc.S.N())
				}
				if !tc.noTable && dropped == 0 {
					t.Fatal("the exact pass shipped all of S: no box table")
				}
			}
		})
	}
}

// TestDefaultLayoutsShipLess: the default layout count shuffles fewer bytes
// than 8 layouts, the default before it, and answers every query the same,
// on harness-shaped blobs, S2 and Spatial3D.
func TestDefaultLayoutsShipLess(t *testing.T) {
	if testing.Short() {
		t.Skip("three joins of up to 18 000 points at two layout counts")
	}
	for _, tc := range []struct {
		name string
		ds   *points.Dataset
	}{
		{"blobs", dataset.Blobs("knn-layouts", 18000, 4, 64, 400, 5, 1)},
		{"S2", dataset.S2(1)},
		{"Spatial3D", dataset.Spatial3D(18000, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			R, S, err := dataset.Split(tc.ds, tc.ds.N()/6, 2)
			if err != nil {
				t.Fatal(err)
			}
			var results [2]*knnjoin.Result
			for i, m := range []int{0, 8} {
				results[i], err = knnjoin.Run(context.Background(), localSession(), R, S, 10, knnjoin.Config{M: m, Accuracy: 0.95, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
			}
			requireSameNeighbors(t, results[0].Neighbors, results[1].Neighbors)
			if def, eight := results[0].Stats.ShuffleBytes, results[1].Stats.ShuffleBytes; def >= eight {
				t.Fatalf("%d layouts shuffled %d bytes, 8 layouts %d", results[0].Stats.M, def, eight)
			}
		})
	}
}

// vectors returns the positions of ds.
func vectors(ds *points.Dataset) []points.Vector {
	out := make([]points.Vector, ds.N())
	for i, p := range ds.Points {
		out[i] = p.Pos
	}
	return out
}

// TestNegativeParametersRefused: 0 asks the join for its default, and a
// negative or non-finite knob, or an accuracy of 1 or more, is an error on
// both passes, not a second spelling of 0.
func TestNegativeParametersRefused(t *testing.T) {
	R, S := splitBlobs(t, "knn-negative", 120, 2, 40, 3)
	for _, c := range []struct {
		name string
		cfg  knnjoin.Config
	}{
		{"M", knnjoin.Config{M: -3}},
		{"Pi", knnjoin.Config{Pi: -2}},
		{"W", knnjoin.Config{W: -5}},
		{"Accuracy", knnjoin.Config{Accuracy: -1}},
		{"W NaN", knnjoin.Config{W: math.NaN()}},
		{"W Inf", knnjoin.Config{W: math.Inf(1)}},
		{"Accuracy NaN", knnjoin.Config{Accuracy: math.NaN()}},
		{"Accuracy Inf", knnjoin.Config{Accuracy: math.Inf(1)}},
		{"Accuracy 1", knnjoin.Config{Accuracy: 1}},
	} {
		if _, err := knnjoin.Run(context.Background(), localSession(), R, S, 3, c.cfg); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("Run with bad %s: err = %v", c.name, err)
		}
		if _, err := knnjoin.RunExact(context.Background(), localSession(), R, S, 3, c.cfg); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("RunExact with bad %s: err = %v", c.name, err)
		}
	}
}
