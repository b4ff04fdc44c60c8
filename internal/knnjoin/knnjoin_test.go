package knnjoin_test

import (
	"context"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/points"
)

// naiveKNN is the single-machine oracle: for every query the full scan of
// S sorted by (squared distance, base ID), truncated to k. The distance
// accumulates term by term, which is bit-identical to the kernels' sqDist,
// so comparisons against the MapReduce result can demand
// exact equality.
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
			all = append(all, knnjoin.Neighbor{ID: s.ID, D2: d2})
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
		{"f64", knnjoin.Config{Seed: 3, NumReduces: 4}},
		{"narrow-m", knnjoin.Config{Seed: 5, M: 2, Pi: 6, NumReduces: 3}},
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

func TestExactMatchesOracle(t *testing.T) {
	R, S := splitBlobs(t, "knn-exact", 500, 3, 120, 7)
	for _, k := range []int{1, 4, 11} {
		res, err := knnjoin.RunExact(context.Background(), localSession(), R, S, k, knnjoin.Config{NumReduces: 3})
		if err != nil {
			t.Fatal(err)
		}
		requireSameNeighbors(t, res.Neighbors, naiveKNN(R, S, k))
		if res.Fallbacks != 0 {
			t.Fatalf("k=%d: exact join reported %d fallbacks", k, res.Fallbacks)
		}
	}
}

// TestKLargerThanBase pins the |S| < k contract: every query gets all of S
// and the exact pass resolves the short lists without flagging fallbacks
// forever.
func TestKLargerThanBase(t *testing.T) {
	R, S := splitBlobs(t, "knn-small", 40, 2, 30, 9)
	res, err := knnjoin.Run(context.Background(), localSession(), R, S, S.N()+5, knnjoin.Config{Seed: 2, NumReduces: 2})
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
	res, err := knnjoin.Run(context.Background(), sess, R, S, 3, knnjoin.Config{Seed: 4, W: 1e-3, NumReduces: 3})
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
	res, err := knnjoin.Run(context.Background(), localSession(), R, S, 3, knnjoin.Config{Seed: 6, Accuracy: 0.95, NumReduces: 4})
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

// TestSweepPrunes: on clustered data the reducers' coordinate sweep must
// evaluate far fewer distances than the query × base-row pairs that meet in
// a reducer — on the exact pass that product is |R|·|S| whatever the
// partitioning — and every list must still equal the oracle's.
func TestSweepPrunes(t *testing.T) {
	R, S := splitBlobs(t, "knn-sweep", 2400, 3, 200, 51)
	res, err := knnjoin.RunExact(context.Background(), localSession(), R, S, 5, knnjoin.Config{NumReduces: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireSameNeighbors(t, res.Neighbors, naiveKNN(R, S, 5))
	pairs := int64(R.N()) * int64(S.N())
	cand := sumCounter(res.Stats.Jobs, knnjoin.CtrCandidates)
	if cand <= 0 || 2*cand >= pairs {
		t.Fatalf("%s = %d for %d query-row pairs: the sweep did not prune", knnjoin.CtrCandidates, cand, pairs)
	}
	if dc := sumCounter(res.Stats.Jobs, mapreduce.CtrDistanceComputations); dc != cand {
		t.Fatalf("%s = %d, %s = %d", mapreduce.CtrDistanceComputations, dc, knnjoin.CtrCandidates, cand)
	}
}

// TestClusterConformance pins the join bit-identical across the local
// engine, a 3-worker rpcmr cluster, and the naive oracle — outputs and
// the deterministic cost counters both.
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
	for _, tc := range []struct {
		name string
		cfg  knnjoin.Config
	}{
		{"f64", knnjoin.Config{Seed: 8, NumReduces: 4}},
		{"fallback-heavy", knnjoin.Config{Seed: 8, W: 1e-3, NumReduces: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local, err := knnjoin.Run(context.Background(), localSession(), R, S, 4, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			clus, err := knnjoin.Run(context.Background(),
				dag.NewSession(master, dag.Options{}), R, S, 4, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameNeighbors(t, clus.Neighbors, local.Neighbors)
			requireSameNeighbors(t, local.Neighbors, naiveKNN(R, S, 4))
			if clus.Fallbacks != local.Fallbacks {
				t.Fatalf("fallbacks: cluster %d local %d", clus.Fallbacks, local.Fallbacks)
			}
			for _, ctr := range []string{knnjoin.CtrCandidates, knnjoin.CtrFallbacks, mapreduce.CtrDistanceComputations} {
				if c, l := sumCounter(clus.Stats.Jobs, ctr), sumCounter(local.Stats.Jobs, ctr); c != l {
					t.Fatalf("%s: cluster %d local %d", ctr, c, l)
				}
			}
		})
	}
}
