package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// refStableSort is the reference the shuffle sort must reproduce exactly:
// stable order by key, emission order preserved within a key.
func refStableSort(ps []Pair) {
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Key < ps[j].Key })
}

// genPairs builds n pairs whose keys are drawn from a pool of distinct
// values, so duplicate keys are common, and whose values record the
// emission index — the witness for stability checks.
func genPairs(rng *rand.Rand, n, distinct int) []Pair {
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{
			Key:   fmt.Sprintf("k%04d", rng.Intn(distinct)),
			Value: []byte(fmt.Sprintf("v%d", i)),
		}
	}
	return ps
}

// TestSortPairsMatchesSliceStable is the property test for the hand-rolled
// merge sort: across sizes that straddle the insertion cutoff, power-of-two
// merge boundaries, and heavy key duplication, the result must match
// sort.SliceStable record for record (keys and the stability witness).
func TestSortPairsMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 2, insertionCutoff - 1, insertionCutoff,
		insertionCutoff + 1, 2*insertionCutoff - 1, 2 * insertionCutoff,
		95, 96, 97, 255, 256, 257, 1000, 4096}
	for _, n := range sizes {
		for _, distinct := range []int{1, 3, 50, 10000} {
			ps := genPairs(rng, n, distinct)
			want := append([]Pair(nil), ps...)
			refStableSort(want)

			got := append([]Pair(nil), ps...)
			sortPairsScratch(got, nil)
			for i := range want {
				if got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) {
					t.Fatalf("n=%d distinct=%d: record %d = {%q %q}, want {%q %q}",
						n, distinct, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
		}
	}
}

// TestSortPairsScratchReuse checks the scratch-buffer contract: the returned
// buffer is reusable across calls of different sizes and never corrupts the
// sorted output.
func TestSortPairsScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch []Pair
	for _, n := range []int{500, 10, 2000, 0, 1999} {
		ps := genPairs(rng, n, 17)
		want := append([]Pair(nil), ps...)
		refStableSort(want)
		scratch = sortPairsScratch(ps, scratch)
		for i := range want {
			if ps[i].Key != want[i].Key || string(ps[i].Value) != string(want[i].Value) {
				t.Fatalf("n=%d: record %d diverged after scratch reuse", n, i)
			}
		}
	}
}

// TestSortPairsAllocFree verifies the shuffle sort allocates nothing once a
// scratch buffer is warm — the point of replacing sort.SliceStable.
func TestSortPairsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := genPairs(rng, 2048, 31)
	work := make([]Pair, len(ps))
	scratch := make([]Pair, len(ps))
	allocs := testing.AllocsPerRun(10, func() {
		copy(work, ps)
		scratch = sortPairsScratch(work, scratch)
	})
	if allocs != 0 {
		t.Fatalf("sortPairsScratch with warm scratch: %v allocs/op, want 0", allocs)
	}
}

// TestMergeGroupsOrdersAndGroups: the reduce-side merge visits keys in order,
// once each, with a key's values source by source and each source's in its
// own order; empty sources and a reducer error are handled.
func TestMergeGroupsOrdersAndGroups(t *testing.T) {
	srcs := [][]Pair{
		{{Key: "a", Value: []byte("1")}, {Key: "a", Value: []byte("2")}, {Key: "c", Value: []byte("3")}},
		nil,
		{{Key: "a", Value: []byte("4")}, {Key: "b", Value: []byte("5")}},
		{{Key: "c", Value: []byte("6")}},
	}
	var groups []string
	err := mergeGroups(srcs, func(key string, values [][]byte) error {
		groups = append(groups, key+"="+string(bytes.Join(values, []byte(","))))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(groups); got != "[a=1,2,4 b=5 c=3,6]" {
		t.Fatalf("groups = %s", got)
	}
	if err := mergeGroups(nil, func(string, [][]byte) error { return fmt.Errorf("called") }); err != nil {
		t.Fatalf("no sources: %v", err)
	}
	calls := 0
	err = mergeGroups(srcs, func(key string, _ [][]byte) error {
		calls++
		return fmt.Errorf("stop at %s", key)
	})
	if err == nil || err.Error() != "stop at a" || calls != 1 {
		t.Fatalf("reducer error: err=%v after %d calls", err, calls)
	}
}

// TestRunParallelStopsDispatchAfterError: once a task fails, runParallel
// must stop feeding the queue. With 2 workers and a failure on the first
// task, far fewer than n tasks may run — bounded by the tasks already in
// flight when the failure lands, not by the queue length.
func TestRunParallelStopsDispatchAfterError(t *testing.T) {
	const n = 1000
	var started atomic.Int64
	err := runParallelCtx(context.Background(), n, 2, func(i int) error {
		started.Add(1)
		if i == 0 {
			return fmt.Errorf("task %d boom", i)
		}
		// Give the failing task time to close the gate so the count below
		// reflects dispatch behaviour, not scheduling luck.
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil || err.Error() != "task 0 boom" {
		t.Fatalf("err = %v, want task 0 boom", err)
	}
	if got := started.Load(); got > n/2 {
		t.Fatalf("%d of %d tasks started after early failure; dispatch did not stop", got, n)
	}
}

// TestRunParallelFirstErrorWins: the error returned is the first one
// recorded, and every dispatched task still completes before return.
func TestRunParallelAllTasksRunWithoutError(t *testing.T) {
	const n = 100
	var ran atomic.Int64
	if err := runParallelCtx(context.Background(), n, 4, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
}

// BenchmarkSortPairs compares the shuffle's pair sort against the
// reflect-based sort.SliceStable it replaced, on a shuffle-shaped workload
// (short string keys with duplicates, small byte values).
func BenchmarkSortPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := genPairs(rng, 8192, 997)
	work := make([]Pair, len(base))

	b.Run("merge", func(b *testing.B) {
		var scratch []Pair
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, base)
			scratch = sortPairsScratch(work, scratch)
		}
	})
	b.Run("slicestable", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, base)
			refStableSort(work)
		}
	})
}
