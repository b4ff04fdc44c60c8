package knnjoin_test

import (
	"context"
	"math"
	"reflect"
	"sort"
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
