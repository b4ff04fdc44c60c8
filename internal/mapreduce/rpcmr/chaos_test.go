package rpcmr

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
)

// lshJob builds the paper's LSH-DDP density job, pinned to deterministic
// task counts.
func lshJob() *mapreduce.Job {
	conf := mapreduce.Conf{}
	conf.SetFloat("ddp.dc", 4.0)
	conf.SetInt("ddp.dim", 2)
	conf.SetInt("ddp.lsh.m", 4)
	conf.SetInt("ddp.lsh.pi", 2)
	conf.SetFloat("ddp.lsh.w", 12)
	conf.SetInt64("ddp.seed", 7)
	j := core.JobFactories()[core.JobLSHRho](conf)
	j.NumReduces = 3
	return j
}

// sortedPairs canonicalizes job output for bit-identical comparison.
func sortedPairs(ps []mapreduce.Pair) []mapreduce.Pair {
	out := append([]mapreduce.Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return bytes.Compare(out[i].Value, out[j].Value) < 0
	})
	return out
}

func assertIdenticalOutput(t *testing.T, healthy, faulty []mapreduce.Pair) {
	t.Helper()
	a, b := sortedPairs(healthy), sortedPairs(faulty)
	if len(a) != len(b) {
		t.Fatalf("output sizes differ: healthy %d, faulty %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("output diverges at %d: healthy %q=%q, faulty %q=%q",
				i, a[i].Key, a[i].Value, b[i].Key, b[i].Value)
		}
	}
}

// TestChaosWorkerDeathMidJob kills a worker while an LSH-DDP ρ job is in
// its shuffle: the victim dies on the first chunk it streams to a reducer,
// taking its map outputs with it. The survivors must re-execute the lost
// maps and finish with output bit-identical to the healthy run and the same
// distance count.
//
// Which worker runs which task depends on who polled first, so a run may
// finish without a reducer ever reading from the victim (in about half the
// runs on a 3-worker loopback cluster). Such a run is healthy and must
// match too, and the job is run again until the kill has fired.
func TestChaosWorkerDeathMidJob(t *testing.T) {
	m, ws := startCluster(t, 3)
	m.leaseTimeout = 500 * time.Millisecond
	input := core.InputPairs(dataset.Blobs("chaos-kill", 600, 2, 4, 100, 3, 11))

	healthy, err := m.Run(context.Background(), lshJob(), input)
	if err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	wantDist := healthy.Counters.Get(mapreduce.CtrDistanceComputations)
	if wantDist == 0 {
		t.Fatal("healthy run counted no distances")
	}

	// The kill runs off the hook goroutine (Close waits for the victim's
	// in-flight task); from the trigger on, every chunk the victim would
	// still stream fails, as it would from a dead process.
	harness := chaos.New(42)
	victim := harness.Register("worker0", ws[0].Close, nil)
	var dead atomic.Bool
	var killed sync.WaitGroup
	killed.Add(1)
	trig := chaos.OnNth(1, func() {
		dead.Store(true)
		go func() {
			defer killed.Done()
			victim.Kill() //nolint:errcheck
		}()
	})
	ws[0].shuffleChunkHook = func(_, _, _, _ int) error {
		trig()
		if dead.Load() {
			return errors.New("chaos: worker killed")
		}
		return nil
	}

	for attempt := 1; ; attempt++ {
		faulty, err := m.Run(context.Background(), lshJob(), input)
		if err != nil {
			t.Fatalf("run %d with a worker killed mid-job: %v", attempt, err)
		}
		assertIdenticalOutput(t, healthy.Output, faulty.Output)
		if got := faulty.Counters.Get(mapreduce.CtrDistanceComputations); got != wantDist {
			t.Fatalf("run %d: %s = %d, healthy run %d", attempt, mapreduce.CtrDistanceComputations, got, wantDist)
		}
		if dead.Load() {
			// The chunk that fired the kill belonged to a map output a
			// reducer still needed, so at least one map ran twice.
			if got := faulty.Counters.Get(mapreduce.CtrMapInputRecords); got <= int64(len(input)) {
				t.Fatalf("run %d: %s = %d, no lost map was re-executed", attempt, mapreduce.CtrMapInputRecords, got)
			}
			t.Logf("worker killed in run %d", attempt)
			break
		}
		if attempt == 200 {
			t.Fatal("no reducer ever read from the victim — test exercised nothing")
		}
	}
	killed.Wait()
	if victim.Alive() {
		t.Fatal("victim survived its kill")
	}
}
