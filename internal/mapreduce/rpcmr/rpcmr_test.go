package rpcmr

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/mapreduce"
)

// wordcount is the canonical framework smoke-test job.
func wordcountJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: "wordcount",
		Conf: conf,
		Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				out.Emit(w, []byte("1"))
			}
			return nil
		},
		Combine: sumReduce,
		Reduce:  sumReduce,
	}
}

func sumReduce(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	out.Emit(key, []byte(strconv.Itoa(total)))
	return nil
}

func init() {
	RegisterJobs(map[string]JobFactory{
		"wordcount": wordcountJob,
		"fail-always": func(conf mapreduce.Conf) *mapreduce.Job {
			return &mapreduce.Job{
				Name: "fail-always",
				Map: func(_ *mapreduce.TaskContext, _ string, _ []byte, _ mapreduce.Emitter) error {
					return fmt.Errorf("injected map failure")
				},
				Reduce: sumReduce,
			}
		},
		"arrival": arrivalJob,
	})
	RegisterJobs(core.JobFactories())
}

// arrivalJob sends every record to one key of one reducer, which joins the
// values in the order it received them.
func arrivalJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       "arrival",
		Conf:       conf,
		NumMaps:    3,
		NumReduces: 1,
		Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			out.Emit("k", value)
			return nil
		},
		Reduce: func(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			out.Emit(key, bytes.Join(values, []byte(" ")))
			return nil
		},
	}
}

// startCluster boots a master and n workers on loopback.
func startCluster(t testing.TB, n int) (*Master, []*Worker) {
	t.Helper()
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	var ws []*Worker
	for i := 0; i < n; i++ {
		w, err := StartWorker(m.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	t.Cleanup(func() {
		for _, w := range ws {
			select {
			case <-w.quit:
			default:
				w.Close()
			}
		}
	})
	if err := m.WaitWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return m, ws
}

func TestClusterWordcount(t *testing.T) {
	m, _ := startCluster(t, 3)
	input := []mapreduce.Pair{
		{Value: []byte("the quick brown fox")},
		{Value: []byte("the lazy dog")},
		{Value: []byte("the fox")},
	}
	res, err := m.Run(context.Background(), wordcountJob(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range res.Output {
		got[p.Key] = string(p.Value)
	}
	want := map[string]string{"the": "3", "fox": "2", "quick": "1", "brown": "1", "lazy": "1", "dog": "1"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %q, want %q", k, got[k], v)
		}
	}
	if res.Counters.Get(mapreduce.CtrMapInputRecords) != 3 {
		t.Fatalf("map input records = %d, want 3", res.Counters.Get(mapreduce.CtrMapInputRecords))
	}
	// Combiner collapsed duplicate words within map tasks, so shuffle
	// records is between 6 (full dedup) and 9 (none).
	sr := res.Counters.Get(mapreduce.CtrShuffleRecords)
	if sr < 6 || sr > 9 {
		t.Fatalf("shuffle records = %d, want 6..9", sr)
	}
}

func TestClusterMatchesLocalEngine(t *testing.T) {
	m, _ := startCluster(t, 2)
	input := make([]mapreduce.Pair, 0, 200)
	for i := 0; i < 200; i++ {
		input = append(input, mapreduce.Pair{Value: []byte(fmt.Sprintf("w%d w%d", i%7, i%13))})
	}
	distRes, err := m.Run(context.Background(), wordcountJob(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	local := &mapreduce.LocalEngine{Parallelism: 2}
	locRes, err := local.Run(context.Background(), wordcountJob(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	toMap := func(ps []mapreduce.Pair) map[string]string {
		out := map[string]string{}
		for _, p := range ps {
			out[p.Key] = string(p.Value)
		}
		return out
	}
	d, l := toMap(distRes.Output), toMap(locRes.Output)
	if len(d) != len(l) {
		t.Fatalf("distributed %d keys, local %d", len(d), len(l))
	}
	for k, v := range l {
		if d[k] != v {
			t.Fatalf("key %q: distributed %q, local %q", k, d[k], v)
		}
	}
}

// The order values reach a reducer is part of the engine contract: map task
// t's values in emission order, then task t+1's. A reducer that folds floats
// or keeps the first of several ties depends on it, so both engines must
// deliver the same order at any parallelism.
func TestReduceSeesMapTaskOrder(t *testing.T) {
	// 3 map tasks × 7 records, all under one key.
	var input []mapreduce.Pair
	for task := 0; task < 3; task++ {
		for i := 0; i < 7; i++ {
			input = append(input, mapreduce.Pair{Value: []byte(fmt.Sprintf("%c%d", 'a'+task, i))})
		}
	}
	const golden = "a0 a1 a2 a3 a4 a5 a6 b0 b1 b2 b3 b4 b5 b6 c0 c1 c2 c3 c4 c5 c6"
	master, _ := startCluster(t, 3)
	for _, rc := range []struct {
		name   string
		engine mapreduce.Engine
	}{
		{"local-1", &mapreduce.LocalEngine{Parallelism: 1}},
		{"local-3", &mapreduce.LocalEngine{Parallelism: 3}},
		{"rpcmr-3", master},
	} {
		res, err := rc.engine.Run(context.Background(), arrivalJob(nil), input)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		if len(res.Output) != 1 || string(res.Output[0].Value) != golden {
			t.Fatalf("%s: reducer saw %q, want %q", rc.name, res.Output, golden)
		}
	}
}

func TestClusterTaskErrorFailsJob(t *testing.T) {
	m, _ := startCluster(t, 2)
	_, err := m.Run(context.Background(), &mapreduce.Job{Name: "fail-always", Map: func(_ *mapreduce.TaskContext, _ string, _ []byte, _ mapreduce.Emitter) error { return nil }, Reduce: sumReduce},
		[]mapreduce.Pair{{Value: []byte("x")}})
	if err == nil || !strings.Contains(err.Error(), "injected map failure") {
		t.Fatalf("want injected failure error, got %v", err)
	}
}

func TestClusterWorkerFailureRecovery(t *testing.T) {
	m, ws := startCluster(t, 3)
	m.leaseTimeout = 500 * time.Millisecond

	// Run one job to give every worker map outputs, then kill a worker and
	// run again: reduces fetching from the dead worker must trigger map
	// re-execution rather than failing the job.
	input := make([]mapreduce.Pair, 0, 300)
	for i := 0; i < 300; i++ {
		input = append(input, mapreduce.Pair{Value: []byte(fmt.Sprintf("a%d b%d c%d", i%5, i%11, i%17))})
	}
	if _, err := m.Run(context.Background(), wordcountJob(nil), input); err != nil {
		t.Fatal(err)
	}
	ws[0].Close()

	res, err := m.Run(context.Background(), wordcountJob(nil), input)
	if err != nil {
		t.Fatalf("job after worker death: %v", err)
	}
	if len(res.Output) == 0 {
		t.Fatal("empty output after recovery")
	}
}

func TestClusterRunsLSHDDP(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed LSH-DDP in -short mode")
	}
	m, _ := startCluster(t, 3)
	ds := dataset.Blobs("rpc-lsh", 600, 3, 4, 100, 3, 15)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)

	distRes, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
		Config:   core.Config{Engine: m, Dc: dc, Seed: 4},
		Accuracy: 0.95, M: 5, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	localRes, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
		Config:   core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 3}, Dc: dc, Seed: 4},
		Accuracy: 0.95, M: 5, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The distributed engine must produce byte-identical science: same ρ̂,
	// δ̂, upslope for every point.
	for i := range localRes.Rho {
		if distRes.Rho[i] != localRes.Rho[i] {
			t.Fatalf("rho[%d]: distributed %v, local %v", i, distRes.Rho[i], localRes.Rho[i])
		}
		if distRes.Delta[i] != localRes.Delta[i] {
			t.Fatalf("delta[%d]: distributed %v, local %v", i, distRes.Delta[i], localRes.Delta[i])
		}
		if distRes.Upslope[i] != localRes.Upslope[i] {
			t.Fatalf("upslope[%d]: distributed %d, local %d", i, distRes.Upslope[i], localRes.Upslope[i])
		}
	}
	if distRes.Stats.DistanceComputations != localRes.Stats.DistanceComputations {
		t.Fatalf("distance count: distributed %d, local %d",
			distRes.Stats.DistanceComputations, localRes.Stats.DistanceComputations)
	}
}

func TestMasterRejectsWithoutWorkers(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Run(context.Background(), wordcountJob(nil), nil); err == nil {
		t.Fatal("want error with zero workers")
	}
}

func TestUnregisteredJobFailsCleanly(t *testing.T) {
	m, _ := startCluster(t, 1)
	job := &mapreduce.Job{
		Name:   "never-registered",
		Map:    func(_ *mapreduce.TaskContext, _ string, _ []byte, _ mapreduce.Emitter) error { return nil },
		Reduce: sumReduce,
	}
	_, err := m.Run(context.Background(), job, []mapreduce.Pair{{Value: []byte("x")}})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("want not-registered error, got %v", err)
	}
}
