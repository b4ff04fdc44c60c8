package knnjoin

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

// everyLayoutCandidatesJob is CandidatesJob as it was before queries were
// routed: the query-side map emits the 'Q' record under all M layouts.
func everyLayoutCandidatesJob(conf mapreduce.Conf) *mapreduce.Job {
	job := CandidatesJob(conf)
	routed, lazy := job.Map, lazyLayouts()
	job.Map = func(ctx *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
		if len(value) == 0 || value[0] != tagQuery {
			return routed(ctx, key, value, out)
		}
		p, _, err := points.DecodePoint(value[1:])
		if err != nil {
			return err
		}
		layouts := lazy(ctx.Conf)
		var kb lsh.KeyBuf
		layouts.Hash(&kb, p.Pos)
		g, _ := layouts.GuaranteeRadius(&kb)
		rec := encodeBucketQuery(g, p)
		kb.EachKey(func(key string) { out.Emit(key, rec) })
		return nil
	}
	return job
}

// jobCounter returns a counter of the first job of the given name.
func jobCounter(t *testing.T, res *Result, job, counter string) int64 {
	t.Helper()
	for _, j := range res.Stats.Jobs {
		if j.Name == job {
			return j.Counters[counter]
		}
	}
	t.Fatalf("no %s job in the run's stats", job)
	return 0
}

// TestQueriesRouteToOneBucket pins the routing rule on the fixture of
// TestJoinMatchesOracleLocal: sending each query only to its bucket in the
// layout that attains its guarantee radius emits one record per query, and
// changes neither a neighbour list nor which queries fall back, compared
// with replicating it to every layout.
func TestQueriesRouteToOneBucket(t *testing.T) {
	ds := dataset.Blobs("knn-oracle", 700, 2, 4, 120, 3, 21)
	R, S, err := dataset.Split(ds, 150, 22)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"f64", Config{Seed: 3, NumReduces: 4}},
		{"narrow-m", Config{Seed: 5, M: 2, Pi: 6, NumReduces: 3}},
		{"fallback-heavy", Config{Seed: 3, W: 4, NumReduces: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			session := func() *dag.Session {
				return dag.NewSession(&mapreduce.LocalEngine{Parallelism: 4}, dag.Options{})
			}
			routed, err := Run(context.Background(), session(), R, S, 5, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			every, err := run(context.Background(), session(), R, S, 5, tc.cfg, everyLayoutCandidatesJob)
			if err != nil {
				t.Fatal(err)
			}
			m, nR, nS := int64(tc.cfg.m()), int64(R.N()), int64(S.N())
			if got := jobCounter(t, every, JobCandidates, mapreduce.CtrMapOutputRecords); got != m*(nS+nR) {
				t.Fatalf("reference run emitted %d candidate records, want %d", got, m*(nS+nR))
			}
			if got := jobCounter(t, routed, JobCandidates, mapreduce.CtrMapOutputRecords) - m*nS; got != nR {
				t.Fatalf("%d query-side records for %d queries", got, nR)
			}
			if got := jobCounter(t, routed, JobMerge, mapreduce.CtrReduceInputRecords); got != nR {
				t.Fatalf("merge pass saw %d partial lists for %d queries", got, nR)
			}
			if routed.Fallbacks != every.Fallbacks {
				t.Fatalf("fallbacks: %d routed, %d under every layout", routed.Fallbacks, every.Fallbacks)
			}
			if tc.name == "fallback-heavy" && (routed.Fallbacks == 0 || routed.Fallbacks == R.N()) {
				t.Fatalf("%d of %d queries fell back; the case is meant to mix both outcomes", routed.Fallbacks, R.N())
			}
			if !reflect.DeepEqual(routed.Neighbors, every.Neighbors) {
				t.Fatal("neighbour lists differ between the routed and the every-layout run")
			}
		})
	}
}

// bucketValues encodes one bucket's shuffle group: every point of S as a
// base record, every point of R as a 'Q' record.
func bucketValues(R, S *points.Dataset) [][]byte {
	var values [][]byte
	for _, p := range S.Points {
		values = append(values, encodeTagged(tagBase, p))
	}
	for i, p := range R.Points {
		values = append(values, encodeBucketQuery(float64(i), p))
	}
	return values
}

// reduceBucket runs bucketReduce over one group and returns what it emitted
// and what it counted.
func reduceBucket(t *testing.T, conf mapreduce.Conf, values [][]byte) (out []mapreduce.Pair, candidates int64) {
	t.Helper()
	ctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
	err := bucketReduce(ctx, "bucket", values, mapreduce.EmitterFunc(func(key string, value []byte) {
		out = append(out, mapreduce.Pair{Key: key, Value: bytes.Clone(value)})
	}))
	if err != nil {
		t.Fatal(err)
	}
	if dc := ctx.Counters.Get(mapreduce.CtrDistanceComputations); dc != ctx.Counters.Get(CtrCandidates) {
		t.Fatalf("%s %d, %s %d", mapreduce.CtrDistanceComputations, dc, CtrCandidates, ctx.Counters.Get(CtrCandidates))
	}
	return out, ctx.Counters.Get(CtrCandidates)
}

// TestSweepOrderInsensitive: the engines deliver a group's values in
// whatever order the shuffle produced; the partial lists and the number of
// distances evaluated must not depend on it.
func TestSweepOrderInsensitive(t *testing.T) {
	ds := dataset.Blobs("knn-sweep-order", 900, 3, 5, 60, 2, 17)
	// Exact duplicates and a shared coordinate, so ties on the sweep axis
	// and in distance both occur.
	for i := 0; i+1 < len(ds.Points); i += 9 {
		copy(ds.Points[i+1].Pos, ds.Points[i].Pos)
	}
	R, S, err := dataset.Split(ds, 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	conf := mapreduce.Conf{}
	conf.SetInt(ConfK, 6)
	values := bucketValues(R, S)
	want, wantCount := reduceBucket(t, conf, values)
	if len(want) != R.N() {
		t.Fatalf("%d partial lists for %d queries", len(want), R.N())
	}
	if wantCount <= 0 || wantCount >= int64(R.N())*int64(S.N()) {
		t.Fatalf("%d distances evaluated for %d×%d pairs: the sweep did not prune", wantCount, R.N(), S.N())
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(values), func(a, b int) { values[a], values[b] = values[b], values[a] })
		got, gotCount := reduceBucket(t, conf, values)
		if gotCount != wantCount {
			t.Fatalf("shuffle %d: %d distances evaluated, %d in input order", trial, gotCount, wantCount)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffle %d: partial lists differ from input order", trial)
		}
	}
}

// TestKeysMatchFmt pins the hand-rolled reduce keys to the fmt verbs they
// replaced, byte for byte, and the exact job's partitioner to its keys.
func TestKeysMatchFmt(t *testing.T) {
	for _, id := range []int32{0, 1, 9, 10, 12345, 99999999, 100000000, 999999999, 1000000000,
		math.MaxInt32, -1, -9, -12345678, -99999999, -100000000, math.MinInt32} {
		if got, want := idKey(id), fmt.Sprintf("%09d", id); got != want {
			t.Fatalf("idKey(%d) = %q, want %q", id, got, want)
		}
	}
	job := ExactJob(mapreduce.Conf{})
	for _, n := range []int{1, 4, 7, 1000, 1001} {
		for part, key := range lazyExactKeys()(n) {
			if want := "x|" + fmt.Sprintf("%03d", part); key != want {
				t.Fatalf("partition %d of %d: key %q, want %q", part, n, key, want)
			}
			if got := job.Partition(key, n); got != part {
				t.Fatalf("key %q lands in partition %d of %d", key, got, n)
			}
		}
	}
	for _, bad := range []string{"", "x", "x|", "y|003", "x|abc", "003"} {
		if got := job.Partition(bad, 4); got != 0 {
			t.Fatalf("Partition(%q) = %d, want 0", bad, got)
		}
	}
}
