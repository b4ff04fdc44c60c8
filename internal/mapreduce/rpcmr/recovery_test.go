package rpcmr

import (
	"context"
	"fmt"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// slowOnce is a job whose map stalls past the lease on its first attempt,
// forcing the master to re-assign it. slowOnceStalls goes 0 → 1 when the
// stall starts and 1 → 2 when the stalled call returns.
var slowOnceStalls int64

func init() {
	RegisterJobs(map[string]JobFactory{"slow-once": func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "slow-once",
			Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
				if atomic.CompareAndSwapInt64(&slowOnceStalls, 0, 1) {
					time.Sleep(600 * time.Millisecond) // beyond the test lease
					atomic.StoreInt64(&slowOnceStalls, 2)
				}
				out.Emit(string(value), []byte("1"))
				return nil
			},
			Reduce: sumReduce,
		}
	}})
}

func TestLeaseExpiryReassignsTask(t *testing.T) {
	m, _ := startCluster(t, 2)
	m.leaseTimeout = 150 * time.Millisecond
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
	m.leaseTimeout = 150 * time.Millisecond
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

// storeEntries counts the map outputs the workers hold.
func storeEntries(ws []*Worker) int {
	total := 0
	for _, w := range ws {
		w.mu.Lock()
		total += len(w.store)
		w.mu.Unlock()
	}
	return total
}

// A map attempt the lease re-queued can finish after its job has ended. Its
// output must not outlive the job: the worker's next poll names no live
// job, and the worker drops it.
func TestLateMapAttemptLeavesNoData(t *testing.T) {
	m, ws := startCluster(t, 2)
	m.leaseTimeout = 150 * time.Millisecond
	atomic.StoreInt64(&slowOnceStalls, 0)
	factory, err := lookupJob("slow-once")
	if err != nil {
		t.Fatal(err)
	}
	input := []mapreduce.Pair{{Value: []byte("a")}, {Value: []byte("b")}, {Value: []byte("c")}}
	if _, err := m.Run(context.Background(), factory(nil), input); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); atomic.LoadInt64(&slowOnceStalls) != 2; {
		if time.Now().After(deadline) {
			t.Fatal("the stalled map attempt never returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for n := storeEntries(ws); n > 0; n = storeEntries(ws) {
		if time.Now().After(deadline) {
			t.Fatalf("%d map outputs left on the workers after the late attempt", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pairBarrier's map tasks each wait until two of them are running, so its
// two map tasks land on two workers; the first returns at once, the second
// 300 ms later, while the first one's worker polls and waits.
var pairBarrier struct {
	started, execs atomic.Int64
}

func init() {
	RegisterJobs(map[string]JobFactory{"pair-barrier": func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name:       "pair-barrier",
			NumMaps:    2,
			NumReduces: 1,
			Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
				pairBarrier.execs.Add(1)
				n := pairBarrier.started.Add(1)
				for deadline := time.Now().Add(5 * time.Second); pairBarrier.started.Load() < 2; {
					if time.Now().After(deadline) {
						return fmt.Errorf("map tasks never ran side by side")
					}
					time.Sleep(time.Millisecond)
				}
				if n == 2 {
					time.Sleep(300 * time.Millisecond)
				}
				out.Emit(string(value), []byte("1"))
				return nil
			},
			Reduce: sumReduce,
		}
	}})
}

// A worker keeps the live job's map outputs across the TaskWait replies it
// polls while other tasks run, so the one reducer fetches both workers'
// outputs and no map task runs twice.
func TestWaitingWorkerKeepsLiveJobOutputs(t *testing.T) {
	m, _ := startCluster(t, 2)
	pairBarrier.started.Store(0)
	pairBarrier.execs.Store(0)
	factory, err := lookupJob("pair-barrier")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), factory(nil), []mapreduce.Pair{{Value: []byte("a")}, {Value: []byte("b")}})
	if err != nil {
		t.Fatal(err)
	}
	if n := pairBarrier.execs.Load(); n != 2 {
		t.Fatalf("%d map executions for 2 map tasks: a stored output was dropped", n)
	}
	if res.Counters.Get(mapreduce.CtrShuffleWireBytes) == 0 {
		t.Fatal("the reducer fetched nothing remotely")
	}
	if len(res.Output) != 2 {
		t.Fatalf("output %v, want a and b", res.Output)
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

// blockUntil holds the gate channel block-until's map waits on; each run
// of TestConcurrentRunRejected installs a fresh one.
var blockUntil atomic.Value

func init() {
	RegisterJobs(map[string]JobFactory{"block-until": func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "block-until",
			Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
				<-blockUntil.Load().(chan struct{})
				out.Emit("k", []byte("1"))
				return nil
			},
			Reduce: sumReduce,
		}
	}})
}

func TestConcurrentRunRejected(t *testing.T) {
	m, _ := startCluster(t, 1)
	block := make(chan struct{})
	blockUntil.Store(block)
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

// stallFirst counts map executions per record and stalls the first
// execution of the record "straggle", simulating a slow worker whose lease
// has not expired.
var (
	stallFirstHit   int64
	stallFirstMu    sync.Mutex
	stallFirstExecs = map[string]int{}
)

func init() {
	RegisterJobs(map[string]JobFactory{"stall-first": func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "stall-first",
			Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
				stallFirstMu.Lock()
				stallFirstExecs[string(value)]++
				stallFirstMu.Unlock()
				if string(value) == "straggle" && atomic.CompareAndSwapInt64(&stallFirstHit, 0, 1) {
					time.Sleep(400 * time.Millisecond)
				}
				out.Emit(string(value), []byte("1"))
				return nil
			},
			Reduce: sumReduce,
		}
	}})
}

// A straggling task within its lease runs once: idle workers wait for it
// instead of launching a second attempt. Only lease expiry re-assigns a
// task (TestLeaseExpiryReassignsTask).
func TestSpeculationDisabledByDefault(t *testing.T) {
	m, _ := startCluster(t, 3)
	atomic.StoreInt64(&stallFirstHit, 0)
	stallFirstMu.Lock()
	stallFirstExecs = map[string]int{}
	stallFirstMu.Unlock()

	// Many fast map tasks and one straggler, one record per map task.
	input := []mapreduce.Pair{{Value: []byte("straggle")}}
	for i := 0; i < 20; i++ {
		input = append(input, mapreduce.Pair{Value: []byte(fmt.Sprintf("fast%d", i))})
	}
	factory, err := lookupJob("stall-first")
	if err != nil {
		t.Fatal(err)
	}
	job := factory(nil)
	job.NumMaps = len(input)
	if _, err := m.Run(context.Background(), job, input); err != nil {
		t.Fatal(err)
	}
	stallFirstMu.Lock()
	defer stallFirstMu.Unlock()
	for _, p := range input {
		if n := stallFirstExecs[string(p.Value)]; n != 1 {
			t.Fatalf("map of %q ran %d times, want 1", p.Value, n)
		}
	}
}

// CompleteTask arguments come off the network: a report naming a task the
// job does not have, or no task kind at all, is refused with an error — it
// must not crash the master — and the job then finishes normally.
func TestCompleteTaskRejectsUnknownTask(t *testing.T) {
	m, _ := startCluster(t, 0)
	// The hand-driven worker below takes the map task and never completes
	// it; the lease hands it to a real worker.
	m.leaseTimeout = 200 * time.Millisecond
	c, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reg RegisterReply
	if err := c.Call("Master.Register", &RegisterArgs{ShuffleAddr: "127.0.0.1:10"}, &reg); err != nil {
		t.Fatal(err)
	}

	type result struct {
		res *mapreduce.Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		job := wordcountJob(nil)
		job.NumMaps, job.NumReduces = 1, 1
		res, err := m.Run(context.Background(), job, []mapreduce.Pair{{Value: []byte("a b a")}})
		done <- result{res, err}
	}()
	// The hand-driven worker takes the map task, then sends bad reports.
	var task GetTaskReply
	for deadline := time.Now().Add(5 * time.Second); task.Kind != TaskMap; {
		if time.Now().After(deadline) {
			t.Fatal("the job's map task was never handed out")
		}
		if err := c.Call("Master.GetTask", &GetTaskArgs{WorkerID: reg.WorkerID}, &task); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, bad := range []CompleteArgs{
		{Kind: TaskMap, TaskID: 1},
		{Kind: TaskMap, TaskID: -1},
		{Kind: TaskReduce, TaskID: 7},
		{Kind: TaskMap, TaskID: 5, Err: "boom", FailedMaps: []int{0}},
		{Kind: TaskWait, TaskID: 0},
	} {
		bad.WorkerID, bad.JobID = reg.WorkerID, task.JobID
		if err := c.Call("Master.CompleteTask", &bad, &CompleteReply{}); err == nil {
			t.Errorf("CompleteTask(%+v) accepted", bad)
		}
	}

	// Real workers join and finish the job; the master is still serving.
	for i := 0; i < 2; i++ {
		w, err := StartWorker(m.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	got := map[string]string{}
	for _, p := range r.res.Output {
		got[p.Key] = string(p.Value)
	}
	if got["a"] != "2" || got["b"] != "1" {
		t.Fatalf("word counts %v", got)
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
