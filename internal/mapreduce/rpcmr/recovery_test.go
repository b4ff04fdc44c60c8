package rpcmr

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// slowOnce is a job whose map stalls past the lease on its first attempt,
// forcing the master to re-assign it.
var slowOnceStalls int64

func init() {
	RegisterJob("slow-once", func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "slow-once",
			Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
				if atomic.CompareAndSwapInt64(&slowOnceStalls, 0, 1) {
					time.Sleep(600 * time.Millisecond) // beyond the test lease
				}
				out.Emit(string(value), []byte("1"))
				return nil
			},
			Reduce: sumReduce,
		}
	})
}

func TestLeaseExpiryReassignsTask(t *testing.T) {
	m, _ := startCluster(t, 2)
	m.LeaseTimeout = 150 * time.Millisecond
	atomic.StoreInt64(&slowOnceStalls, 0)

	input := []mapreduce.Pair{{Value: []byte("a")}, {Value: []byte("b")}, {Value: []byte("c")}}
	job := &mapreduce.Job{Name: "slow-once", Map: nil, Reduce: nil}
	// Build from the registry so worker-side code matches.
	factory, err := lookupJob("slow-once")
	if err != nil {
		t.Fatal(err)
	}
	job = factory(nil)
	res, err := m.Run(context.Background(), job, input)
	if err != nil {
		t.Fatalf("job with stalled attempt: %v", err)
	}
	// Despite the duplicate attempt, each key is counted exactly once:
	// the master accepts only the first completion per task.
	got := map[string]string{}
	for _, p := range res.Output {
		got[p.Key] = string(p.Value)
	}
	for _, k := range []string{"a", "b", "c"} {
		if got[k] != "1" {
			t.Fatalf("count[%q] = %q (duplicate attempt leaked?)", k, got[k])
		}
	}
}

func TestDuplicateCompletionCountersNotDoubled(t *testing.T) {
	m, _ := startCluster(t, 3)
	m.LeaseTimeout = 150 * time.Millisecond
	atomic.StoreInt64(&slowOnceStalls, 0)

	input := make([]mapreduce.Pair, 30)
	for i := range input {
		input[i] = mapreduce.Pair{Value: []byte(fmt.Sprintf("k%d", i%5))}
	}
	factory, _ := lookupJob("slow-once")
	res, err := m.Run(context.Background(), factory(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	// Map input records counter must equal the true record count even
	// though one task ran twice.
	if got := res.Counters.Get(mapreduce.CtrMapInputRecords); got != 30 {
		t.Fatalf("map input records = %d, want 30", got)
	}
}

func TestRegisterJobPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate registration")
		}
	}()
	RegisterJob("wordcount", wordcountJob) // already registered in init
}

func TestRegisterJobsSkipsDuplicates(t *testing.T) {
	// Must not panic: RegisterJobs tolerates overlap.
	RegisterJobs(map[string]JobFactory{"wordcount": wordcountJob})
	f, err := lookupJob("wordcount")
	if err != nil || f == nil {
		t.Fatalf("lookup after overlap: %v", err)
	}
}

func TestWorkerCleanupDropsIntermediateData(t *testing.T) {
	m, ws := startCluster(t, 2)
	input := []mapreduce.Pair{{Value: []byte("x y z")}, {Value: []byte("x")}}
	if _, err := m.Run(context.Background(), wordcountJob(nil), input); err != nil {
		t.Fatal(err)
	}
	// After Run returns, the master has issued Cleanup; the stores should
	// drain shortly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := 0
		for _, w := range ws {
			w.mu.Lock()
			total += len(w.store)
			w.mu.Unlock()
		}
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d intermediate entries left after cleanup", total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSequentialJobsReuseCluster(t *testing.T) {
	m, _ := startCluster(t, 2)
	for i := 0; i < 5; i++ {
		input := []mapreduce.Pair{{Value: []byte(fmt.Sprintf("run%d common", i))}}
		res, err := m.Run(context.Background(), wordcountJob(nil), input)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		found := false
		for _, p := range res.Output {
			if p.Key == fmt.Sprintf("run%d", i) {
				found = true
			}
			if strings.HasPrefix(p.Key, "run") && p.Key != fmt.Sprintf("run%d", i) {
				t.Fatalf("run %d leaked key %q from a previous job", i, p.Key)
			}
		}
		if !found {
			t.Fatalf("run %d missing its own key", i)
		}
	}
}

func TestConcurrentRunRejected(t *testing.T) {
	m, _ := startCluster(t, 1)
	block := make(chan struct{})
	RegisterJob("block-until", func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "block-until",
			Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
				<-block
				out.Emit("k", []byte("1"))
				return nil
			},
			Reduce: sumReduce,
		}
	})
	factory, _ := lookupJob("block-until")
	done := make(chan error, 1)
	go func() {
		_, err := m.Run(context.Background(), factory(nil), []mapreduce.Pair{{Value: []byte("x")}})
		done <- err
	}()
	// Wait until the first job is installed, then try a second.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m.mu.Lock()
		installed := m.cur != nil
		m.mu.Unlock()
		if installed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Run(context.Background(), wordcountJob(nil), nil); err == nil || !strings.Contains(err.Error(), "already running") {
		t.Fatalf("second concurrent run: %v", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("first job: %v", err)
	}
}

// stallFirst sleeps a long time on exactly one globally-first map record,
// simulating a straggler node; backup attempts run at full speed.
var stallFirstHit int64

func init() {
	RegisterJob("stall-first", func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "stall-first",
			Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
				if string(value) == "straggle" && atomic.CompareAndSwapInt64(&stallFirstHit, 0, 1) {
					time.Sleep(3 * time.Second)
				}
				out.Emit(string(value), []byte("1"))
				return nil
			},
			Reduce: sumReduce,
		}
	})
}

func TestSpeculativeExecutionBeatsStraggler(t *testing.T) {
	m, _ := startCluster(t, 3)
	m.SpeculativeFactor = 2 // backup when a task runs 2x the median
	atomic.StoreInt64(&stallFirstHit, 0)

	// Many fast map tasks establish a small median; one straggler.
	input := []mapreduce.Pair{{Value: []byte("straggle")}}
	for i := 0; i < 20; i++ {
		input = append(input, mapreduce.Pair{Value: []byte(fmt.Sprintf("fast%d", i))})
	}
	factory, err := lookupJob("stall-first")
	if err != nil {
		t.Fatal(err)
	}
	built := factory(nil)
	built.NumMaps = 21 // one record per map task

	start := time.Now()
	res, err := m.Run(context.Background(), built, input)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Without speculation the job would take >= 3s (the stalled attempt);
	// with it, a backup attempt completes the task quickly. Leave slack
	// for slow CI machines but stay clearly under the stall.
	if elapsed >= 2500*time.Millisecond {
		t.Fatalf("job took %v; speculation did not kick in", elapsed)
	}
	got := map[string]string{}
	for _, p := range res.Output {
		got[p.Key] = string(p.Value)
	}
	if got["straggle"] != "1" {
		t.Fatalf("straggler record counted %q times", got["straggle"])
	}
	for i := 0; i < 20; i++ {
		if got[fmt.Sprintf("fast%d", i)] != "1" {
			t.Fatalf("lost record fast%d", i)
		}
	}
}

func TestSpeculationDisabledByDefault(t *testing.T) {
	m, _ := startCluster(t, 2)
	if m.SpeculativeFactor != 0 {
		t.Fatalf("speculation enabled by default: %v", m.SpeculativeFactor)
	}
}

func TestMasterHistory(t *testing.T) {
	m, _ := startCluster(t, 2)
	if _, err := m.Run(context.Background(), wordcountJob(nil), []mapreduce.Pair{{Value: []byte("a b")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), wordcountJob(nil), []mapreduce.Pair{{Value: []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	// A failed job is recorded too.
	factory, _ := lookupJob("fail-always")
	if _, err := m.Run(context.Background(), factory(nil), []mapreduce.Pair{{Value: []byte("x")}}); err == nil {
		t.Fatal("want failure")
	}
	h := m.History()
	if len(h) != 3 {
		t.Fatalf("history has %d records, want 3", len(h))
	}
	if h[0].Name != "wordcount" || h[0].Failed || h[0].Wall <= 0 {
		t.Fatalf("record 0: %+v", h[0])
	}
	if !h[2].Failed {
		t.Fatalf("record 2 not marked failed: %+v", h[2])
	}
	if h[1].Counters[mapreduce.CtrMapInputRecords] != 1 {
		t.Fatalf("record 1 counters: %v", h[1].Counters)
	}
}

// Traces is a view of History: one trace per job that did not fail, with
// the master's job ID and the worker-reported spans.
func TestMasterTracesFollowHistory(t *testing.T) {
	m, _ := startCluster(t, 2)
	factory, _ := lookupJob("fail-always")
	if _, err := m.Run(context.Background(), factory(nil), []mapreduce.Pair{{Value: []byte("x")}}); err == nil {
		t.Fatal("want failure")
	}
	res, err := m.Run(context.Background(), wordcountJob(nil), []mapreduce.Pair{{Value: []byte("a b")}})
	if err != nil {
		t.Fatal(err)
	}
	traces, h := m.Traces(), m.History()
	if len(h) != 2 || len(traces) != 1 {
		t.Fatalf("%d history records, %d traces; want 2 and 1", len(h), len(traces))
	}
	tr := traces[0]
	if tr.Job != "wordcount" || tr.ID != h[1].ID || tr.Wall != h[1].Wall {
		t.Fatalf("trace %q #%d does not match history record %+v", tr.Job, tr.ID, h[1])
	}
	if len(tr.Spans) == 0 || len(tr.Spans) != len(res.Trace.Spans) {
		t.Fatalf("trace has %d spans, Run returned %d", len(tr.Spans), len(res.Trace.Spans))
	}
	if tr.Counters[mapreduce.CtrMapInputRecords] != 1 {
		t.Fatalf("trace counters: %v", tr.Counters)
	}
}
