package rpcmr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// seedStore plants a partitioned map output directly in a worker's store,
// letting transport tests exercise fetches without running a job.
func seedStore(w *Worker, jobID, mapTask int, parts [][]mapreduce.Pair) {
	w.mu.Lock()
	w.store[storeKey{jobID: jobID, mapTask: mapTask}] = parts
	w.mu.Unlock()
}

// textPairs builds n highly compressible records (~valSize bytes each).
func textPairs(n, valSize int) []mapreduce.Pair {
	pairs := make([]mapreduce.Pair, n)
	for i := range pairs {
		pairs[i] = mapreduce.Pair{
			Key:   fmt.Sprintf("key-%06d", i),
			Value: bytes.Repeat([]byte{'a' + byte(i%4)}, valSize),
		}
	}
	return pairs
}

// randomPairs builds n incompressible records from a seeded PRNG.
func randomPairs(n, valSize int, seed int64) []mapreduce.Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]mapreduce.Pair, n)
	for i := range pairs {
		v := make([]byte, valSize)
		rng.Read(v)
		pairs[i] = mapreduce.Pair{Key: fmt.Sprintf("key-%06d", i), Value: v}
	}
	return pairs
}

func TestShuffleStreamRoundTrip(t *testing.T) {
	_, ws := startCluster(t, 2)
	want := textPairs(500, 100) // ~54KB framed: several chunks at 8KB
	seedStore(ws[0], 7, 3, [][]mapreduce.Pair{nil, want})

	o := fetchOptions{chunkBytes: 8 << 10}
	got, stats, err := ws[1].fetchStream(ws[0].shuffleAddr, 7, 3, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed pairs differ from stored partition")
	}
	if stats.records != int64(len(want)) {
		t.Fatalf("stats.records = %d, want %d", stats.records, len(want))
	}
	// Without compression every chunk travels raw.
	if stats.wireBytes != stats.rawBytes {
		t.Fatalf("raw transfer: wire %d != raw %d", stats.wireBytes, stats.rawBytes)
	}
	var framed int64
	for _, p := range want {
		framed += mapreduce.FrameBytes(p)
	}
	if stats.rawBytes <= framed {
		t.Fatalf("rawBytes %d should exceed framed payload %d (chunk headers)", stats.rawBytes, framed)
	}

	// The empty partition round-trips too.
	got0, stats0, err := ws[1].fetchStream(ws[0].shuffleAddr, 7, 3, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(got0) != 0 || stats0.records != 0 {
		t.Fatalf("empty partition returned %d pairs", len(got0))
	}
}

func TestShuffleStreamCompression(t *testing.T) {
	_, ws := startCluster(t, 2)
	want := textPairs(500, 100)
	seedStore(ws[0], 7, 0, [][]mapreduce.Pair{want})

	o := fetchOptions{compress: true, chunkBytes: 8 << 10}
	got, stats, err := ws[1].fetchStream(ws[0].shuffleAddr, 7, 0, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compressed stream corrupted the partition")
	}
	// Acceptance: compressible data must actually shrink on the wire.
	if stats.wireBytes >= stats.rawBytes {
		t.Fatalf("compression did not shrink: wire %d >= raw %d", stats.wireBytes, stats.rawBytes)
	}
}

func TestShuffleStreamCompressionNeverRegresses(t *testing.T) {
	_, ws := startCluster(t, 2)
	// Random values: flate only finds scraps (frame headers, key prefixes).
	// Whatever it finds, chunks that don't shrink are sent raw, so the wire
	// volume can never exceed the raw volume.
	want := randomPairs(300, 128, 42)
	seedStore(ws[0], 7, 0, [][]mapreduce.Pair{want})

	o := fetchOptions{compress: true, chunkBytes: 8 << 10}
	got, stats, err := ws[1].fetchStream(ws[0].shuffleAddr, 7, 0, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stream corrupted the partition")
	}
	if stats.wireBytes > stats.rawBytes {
		t.Fatalf("compression regressed the wire volume: wire %d > raw %d", stats.wireBytes, stats.rawBytes)
	}
}

func TestShuffleStreamMissingPartitionPermanent(t *testing.T) {
	_, ws := startCluster(t, 2)
	o := fetchOptions{chunkBytes: 8 << 10}
	_, _, err := ws[1].fetchStream(ws[0].shuffleAddr, 99, 0, 0, o)
	if !errors.Is(err, errShuffleMissing) {
		t.Fatalf("missing partition: got %v, want errShuffleMissing", err)
	}

	// The status-1 reply leaves the serving connection at a request
	// boundary: the same stream must answer a valid request afterwards.
	want := textPairs(10, 32)
	seedStore(ws[0], 99, 0, [][]mapreduce.Pair{want})
	s, err := ws[1].getStream(ws[0].shuffleAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.conn.Close()
	if _, _, err := ws[1].fetchOnStream(s, 99, 5, 0, o); !errors.Is(err, errShuffleMissing) {
		t.Fatalf("first request on stream: %v", err)
	}
	got, _, err := ws[1].fetchOnStream(s, 99, 0, 0, o)
	if err != nil {
		t.Fatalf("request after error reply: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-error fetch returned wrong data")
	}
}

func TestShuffleStreamConnectionReuse(t *testing.T) {
	_, ws := startCluster(t, 2)
	seedStore(ws[0], 7, 0, [][]mapreduce.Pair{textPairs(50, 64)})
	addr := ws[0].shuffleAddr
	o := fetchOptions{chunkBytes: 8 << 10}

	if _, _, err := ws[1].fetchStream(addr, 7, 0, 0, o); err != nil {
		t.Fatal(err)
	}
	ws[1].streamMu.Lock()
	if len(ws[1].streams[addr]) != 1 {
		ws[1].streamMu.Unlock()
		t.Fatalf("pool has %d conns after fetch, want 1", len(ws[1].streams[addr]))
	}
	pooled := ws[1].streams[addr][0]
	ws[1].streamMu.Unlock()

	if _, _, err := ws[1].fetchStream(addr, 7, 0, 0, o); err != nil {
		t.Fatal(err)
	}
	ws[1].streamMu.Lock()
	defer ws[1].streamMu.Unlock()
	if len(ws[1].streams[addr]) != 1 || ws[1].streams[addr][0] != pooled {
		t.Fatal("second fetch did not reuse the pooled connection")
	}
}

func TestShuffleStreamMidStreamAbortIsTransient(t *testing.T) {
	_, ws := startCluster(t, 2)
	seedStore(ws[0], 7, 0, [][]mapreduce.Pair{textPairs(500, 100)})
	ws[0].shuffleChunkHook = func(_, _, _, chunk int) error {
		if chunk >= 1 {
			return errors.New("injected mid-stream abort")
		}
		return nil
	}
	o := fetchOptions{chunkBytes: 1024}
	_, _, err := ws[1].fetchStream(ws[0].shuffleAddr, 7, 0, 0, o)
	if err == nil {
		t.Fatal("mid-stream abort went unnoticed")
	}
	// A dropped connection is transient (worth a retry), unlike the
	// explicit missing-data reply.
	if errors.Is(err, errShuffleMissing) {
		t.Fatalf("mid-stream abort misclassified as permanent: %v", err)
	}
}

// TestRegisterRejectsMissingShuffleAddr speaks raw net/rpc to a live
// master, as a foreign or out-of-date worker would: a registration that
// advertises no dialable shuffle listener is refused with an error and
// admits no worker.
func TestRegisterRejectsMissingShuffleAddr(t *testing.T) {
	m, _ := startCluster(t, 0)
	c, err := dialWorker(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, bad := range []string{"", "127.0.0.1", "127.0.0.1:", "no port here"} {
		var reply RegisterReply
		err := c.Call("Master.Register", &RegisterArgs{Addr: "127.0.0.1:9", ShuffleAddr: bad}, &reply)
		if err == nil {
			t.Errorf("ShuffleAddr %q: registration accepted as worker %d", bad, reply.WorkerID)
		}
	}
	if n := m.WorkerCount(); n != 0 {
		t.Fatalf("%d workers admitted by rejected registrations", n)
	}
	var reply RegisterReply
	if err := c.Call("Master.Register", &RegisterArgs{Addr: "127.0.0.1:9", ShuffleAddr: "127.0.0.1:10"}, &reply); err != nil {
		t.Fatalf("well-formed registration refused: %v", err)
	}
}

// TestFetchWithoutShuffleAddrIsLostOutput: a remote location that names no
// shuffle listener is a permanent loss (no retry can fix it), so the reduce
// reports the map in FailedMaps and the master re-executes it.
func TestFetchWithoutShuffleAddrIsLostOutput(t *testing.T) {
	_, ws := startCluster(t, 2)
	seedStore(ws[0], 7, 0, [][]mapreduce.Pair{textPairs(10, 16)})
	task := &GetTaskReply{JobID: 7, Maps: []MapLocation{{MapTaskID: 0, WorkerAddr: ws[0].addr}}}
	if _, _, err := ws[1].fetchOne(task.Maps[0], task, fetchOptions{}); !errors.Is(err, errShuffleMissing) {
		t.Fatalf("fetchOne error %v, want errShuffleMissing", err)
	}
	if _, _, failed := ws[1].fetchAll(task); !reflect.DeepEqual(failed, []int{0}) {
		t.Fatalf("failed maps %v, want [0]", failed)
	}
}

// chunky emits enough data per map task that every partition streams as
// several chunks at the test's chunk size. The Map function runs once per
// input record, so recovery tests feed exactly one record per map task to
// make chunkyExecs a per-task execution count.
var (
	chunkyMu    sync.Mutex
	chunkyExecs = map[int]int{}
)

func resetChunkyExecs() {
	chunkyMu.Lock()
	chunkyExecs = map[int]int{}
	chunkyMu.Unlock()
}

func init() {
	RegisterJob("chunky", func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "chunky",
			Conf: conf,
			Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
				chunkyMu.Lock()
				chunkyExecs[ctx.TaskID]++
				chunkyMu.Unlock()
				// Slow the map down so tasks spread across the cluster's
				// workers (an instant task lets one worker win every poll,
				// making all shuffle fetches local and untested).
				time.Sleep(40 * time.Millisecond)
				pad := bytes.Repeat([]byte{'p'}, 200)
				for i := 0; i < 40; i++ {
					out.Emit(fmt.Sprintf("%s-%d", value, i), pad)
				}
				return nil
			},
			Reduce: func(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
				out.Emit(key, []byte(strconv.Itoa(len(values))))
				return nil
			},
		}
	})
}

func chunkyInput(n int) []mapreduce.Pair {
	input := make([]mapreduce.Pair, n)
	for i := range input {
		input[i] = mapreduce.Pair{Value: []byte(fmt.Sprintf("m%d", i))}
	}
	return input
}

// TestShuffleCompressionCountersEndToEnd runs a job with per-chunk
// compression on and checks the acceptance invariant on the resulting
// counters: the wire actually carried fewer bytes than the framed volume,
// while the logical shuffle.bytes metric is untouched by the transport.
func TestShuffleCompressionCountersEndToEnd(t *testing.T) {
	m, _ := startCluster(t, 3)
	resetChunkyExecs()

	conf := mapreduce.Conf{}
	conf.SetBool(ConfShuffleCompress, true)
	conf.SetInt(ConfShuffleChunkBytes, 1024)
	factory, err := lookupJob("chunky")
	if err != nil {
		t.Fatal(err)
	}
	job := factory(conf)
	job.NumMaps = 4
	job.NumReduces = 3
	res, err := m.Run(context.Background(), job, chunkyInput(4))
	if err != nil {
		t.Fatal(err)
	}
	wire := res.Counters.Get(mapreduce.CtrShuffleWireBytes)
	sent := res.Counters.Get(mapreduce.CtrShuffleWireBytesCompressed)
	if wire == 0 {
		t.Fatal("no remote streamed fetches; wire counters never engaged")
	}
	if sent >= wire {
		t.Fatalf("compression on: sent %d >= framed %d", sent, wire)
	}
	logical := res.Counters.Get(mapreduce.CtrShuffleBytes)
	if logical == 0 || logical == wire {
		t.Fatalf("logical shuffle.bytes %d should be independent of wire %d", logical, wire)
	}
}

// TestShuffleRetryRecoversTransientAbort kills one streamed fetch
// mid-flight but leaves the data in place: the reducer's retry must
// succeed, with no map re-executed and no FailedMaps report.
func TestShuffleRetryRecoversTransientAbort(t *testing.T) {
	m, ws := startCluster(t, 3)
	resetChunkyExecs()

	var fired int64
	for _, w := range ws {
		w.shuffleChunkHook = func(_, _, _, chunk int) error {
			if chunk >= 1 && atomic.CompareAndSwapInt64(&fired, 0, 1) {
				return errors.New("injected transient abort")
			}
			return nil
		}
	}

	conf := mapreduce.Conf{}
	conf.SetInt(ConfShuffleChunkBytes, 1024)
	factory, err := lookupJob("chunky")
	if err != nil {
		t.Fatal(err)
	}
	job := factory(conf)
	job.NumMaps = 4
	job.NumReduces = 3
	res, err := m.Run(context.Background(), job, chunkyInput(4))
	if err != nil {
		t.Fatalf("job with transient abort: %v", err)
	}
	if atomic.LoadInt64(&fired) != 1 {
		t.Fatal("abort hook never fired; chunking did not engage")
	}
	if len(res.Output) != 4*40 {
		t.Fatalf("output has %d records, want %d", len(res.Output), 4*40)
	}
	chunkyMu.Lock()
	defer chunkyMu.Unlock()
	for task, n := range chunkyExecs {
		if n != 1 {
			t.Fatalf("map %d executed %d times; retry should not re-execute maps", task, n)
		}
	}
}

// TestMidStreamPeerFailureRecovery is the full recovery drill: a peer
// "dies" halfway through a chunked stream — the hook drops the map output
// and severs the connection. The reducer's retry then gets the permanent
// missing-data reply, reports FailedMaps, and the master re-executes only
// that map before re-running the reduce.
func TestMidStreamPeerFailureRecovery(t *testing.T) {
	m, ws := startCluster(t, 3)
	resetChunkyExecs()

	var fired int64
	victim := int64(-1)
	for _, w := range ws {
		w := w
		w.shuffleChunkHook = func(jobID, mapTask, _, chunk int) error {
			if chunk >= 1 && atomic.CompareAndSwapInt64(&fired, 0, 1) {
				atomic.StoreInt64(&victim, int64(mapTask))
				w.mu.Lock()
				delete(w.store, storeKey{jobID: jobID, mapTask: mapTask})
				w.mu.Unlock()
				return errors.New("injected peer death")
			}
			return nil
		}
	}

	conf := mapreduce.Conf{}
	conf.SetInt(ConfShuffleChunkBytes, 1024)
	factory, err := lookupJob("chunky")
	if err != nil {
		t.Fatal(err)
	}
	job := factory(conf)
	job.NumMaps = 4
	job.NumReduces = 3
	res, err := m.Run(context.Background(), job, chunkyInput(4))
	if err != nil {
		t.Fatalf("job with mid-stream peer death: %v", err)
	}
	if atomic.LoadInt64(&fired) != 1 {
		t.Fatal("failure hook never fired; chunking did not engage")
	}

	// Output must be complete and correct despite the lost map output:
	// every emitted key is unique, so each reduces to a count of 1.
	if len(res.Output) != 4*40 {
		t.Fatalf("output has %d records, want %d", len(res.Output), 4*40)
	}
	for _, p := range res.Output {
		if string(p.Value) != "1" {
			t.Fatalf("key %q reduced to %q, want \"1\"", p.Key, p.Value)
		}
	}

	// Only the victim map was re-executed. (It can run more than twice if
	// two reducers were fetching it concurrently and both reported the
	// loss; every other map must have run exactly once.)
	v := int(atomic.LoadInt64(&victim))
	chunkyMu.Lock()
	defer chunkyMu.Unlock()
	if chunkyExecs[v] < 2 {
		t.Fatalf("victim map %d executed %d times, want >= 2", v, chunkyExecs[v])
	}
	for task, n := range chunkyExecs {
		if task != v && n != 1 {
			t.Fatalf("map %d executed %d times; only victim %d should re-run", task, n, v)
		}
	}
}
