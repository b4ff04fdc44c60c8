package rpcmr

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// startPeers starts n workers that serve shuffle fetches but have no
// master to poll, so what seedStore plants stays put: a polling worker drops
// the map outputs of every job but the one its master is running.
func startPeers(t testing.TB, n int) []*Worker {
	t.Helper()
	ws := make([]*Worker, n)
	for i := range ws {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := &Worker{
			addr:    lis.Addr().String(),
			lis:     lis,
			store:   make(map[storeKey][][]mapreduce.Pair),
			streams: make(map[string][]*shuffleStream),
			quit:    make(chan struct{}),
		}
		go w.serveShuffleLoop(lis)
		t.Cleanup(func() {
			lis.Close()
			w.closeStreams()
		})
		ws[i] = w
	}
	return ws
}

// seedStore plants a partitioned map output directly in a worker's store,
// letting transport tests exercise fetches without running a job.
func seedStore(w *Worker, jobID, mapTask int, parts [][]mapreduce.Pair) {
	w.mu.Lock()
	w.store[storeKey{jobID: jobID, mapTask: mapTask}] = parts
	w.mu.Unlock()
}

// textPairs builds n records (~valSize bytes each).
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

// wantWireBytes is what streaming pairs in chunks of chunkBytes puts on
// the wire: every frame plus one 4-byte length header per chunk.
func wantWireBytes(pairs []mapreduce.Pair, chunkBytes int) int64 {
	var wire, chunk int64
	for _, p := range pairs {
		chunk += int64(len(mapreduce.AppendFrame(nil, p)))
		if chunk >= int64(chunkBytes) {
			wire += chunk + 4
			chunk = 0
		}
	}
	if chunk > 0 {
		wire += chunk + 4
	}
	return wire
}

// pastOneChunk is a partition whose frames (118 bytes each) overflow one
// shuffleChunkBytes chunk, so it streams as two.
func pastOneChunk() []mapreduce.Pair { return textPairs(3000, 100) }

func TestShuffleStreamRoundTrip(t *testing.T) {
	ws := startPeers(t, 2)
	want := pastOneChunk()
	seedStore(ws[0], 7, 3, [][]mapreduce.Pair{nil, want})

	got, stats, err := ws[1].fetchStream(ws[0].addr, 7, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed pairs differ from stored partition")
	}
	if stats.records != int64(len(want)) {
		t.Fatalf("stats.records = %d, want %d", stats.records, len(want))
	}
	if w := wantWireBytes(want, shuffleChunkBytes); stats.wireBytes != w || w <= shuffleChunkBytes+4 {
		t.Fatalf("wireBytes %d, want %d (frames plus a 4-byte header per chunk, two chunks)", stats.wireBytes, w)
	}

	// The empty partition round-trips too.
	got0, stats0, err := ws[1].fetchStream(ws[0].addr, 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got0) != 0 || stats0.records != 0 {
		t.Fatalf("empty partition returned %d pairs", len(got0))
	}
}

// encodeResponse is what a peer's shuffle listener sends for pairs: the ok
// status byte and the chunk stream at chunkBytes.
func encodeResponse(t testing.TB, pairs []mapreduce.Pair, chunkBytes int) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteByte(0)
	if _, err := (&Worker{}).streamPartition(bw, nil, pairs, chunkBytes, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzShuffleStream feeds arbitrary bytes to the fetcher as a peer's
// response. It must return an error or pairs, never panic; pairs must be
// exactly what the chunk payloads encode, with the chunk headers counted in
// wireBytes; and a length the bytes do not back — chunk or error message —
// must cost an error, not the announced allocation.
func FuzzShuffleStream(f *testing.F) {
	multi := encodeResponse(f, textPairs(20, 30), 128)
	f.Add(multi)
	f.Add(encodeResponse(f, nil, 128))
	f.Add(encodeResponse(f, []mapreduce.Pair{{Key: "k"}}, 1))
	for _, cut := range []int{1, 3, 5, 40, len(multi) - 5, len(multi) - 1} {
		f.Add(multi[:cut])
	}
	miscount := append([]byte(nil), multi...)
	miscount[len(miscount)-4]++
	f.Add(miscount)
	f.Add([]byte{1, 4, 0, 0, 0, 'g', 'o', 'n', 'e'})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pairs, stats, err := readResponse(bufio.NewReader(bytes.NewReader(data)))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+64*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		// The chunk layer, walked independently: every payload up to the
		// zero-length end marker.
		var payloads []byte
		var headers int64
		for i := 1; ; {
			n := int(binary.LittleEndian.Uint32(data[i:]))
			i += 4
			headers += 4
			if n == 0 {
				break
			}
			payloads = append(payloads, data[i:i+n]...)
			i += n
		}
		var enc []byte
		for _, p := range pairs {
			enc = mapreduce.AppendFrame(enc, p)
		}
		if !bytes.Equal(enc, payloads) {
			t.Fatalf("decoded %v from payloads %x", pairs, payloads)
		}
		if stats.records != int64(len(pairs)) || stats.wireBytes != int64(len(payloads))+headers-4 {
			t.Fatalf("stats %+v for %d pairs in %d payload bytes", stats, len(pairs), len(payloads))
		}
	})
}

func TestShuffleStreamMissingPartitionPermanent(t *testing.T) {
	ws := startPeers(t, 2)
	_, _, err := ws[1].fetchStream(ws[0].addr, 99, 0, 0)
	if !errors.Is(err, errShuffleMissing) {
		t.Fatalf("missing partition: got %v, want errShuffleMissing", err)
	}

	// The status-1 reply leaves the serving connection at a request
	// boundary: the same stream must answer a valid request afterwards.
	want := textPairs(10, 32)
	seedStore(ws[0], 99, 0, [][]mapreduce.Pair{want})
	s, err := ws[1].getStream(ws[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.conn.Close()
	if _, _, err := fetchOnStream(s, 99, 5, 0); !errors.Is(err, errShuffleMissing) {
		t.Fatalf("first request on stream: %v", err)
	}
	got, _, err := fetchOnStream(s, 99, 0, 0)
	if err != nil {
		t.Fatalf("request after error reply: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-error fetch returned wrong data")
	}
}

func TestShuffleStreamConnectionReuse(t *testing.T) {
	ws := startPeers(t, 2)
	seedStore(ws[0], 7, 0, [][]mapreduce.Pair{textPairs(50, 64)})
	addr := ws[0].addr

	if _, _, err := ws[1].fetchStream(addr, 7, 0, 0); err != nil {
		t.Fatal(err)
	}
	ws[1].streamMu.Lock()
	if len(ws[1].streams[addr]) != 1 {
		ws[1].streamMu.Unlock()
		t.Fatalf("pool has %d conns after fetch, want 1", len(ws[1].streams[addr]))
	}
	pooled := ws[1].streams[addr][0]
	ws[1].streamMu.Unlock()

	if _, _, err := ws[1].fetchStream(addr, 7, 0, 0); err != nil {
		t.Fatal(err)
	}
	ws[1].streamMu.Lock()
	defer ws[1].streamMu.Unlock()
	if len(ws[1].streams[addr]) != 1 || ws[1].streams[addr][0] != pooled {
		t.Fatal("second fetch did not reuse the pooled connection")
	}
}

// TestShuffleRequestWire speaks to a worker's shuffle listener with
// hand-built bytes: a 16-byte "DPS3" request is answered with the
// partition, and the older 20-byte "DPS2" request, which carried a chunk
// hint, closes the connection without a reply byte.
func TestShuffleRequestWire(t *testing.T) {
	ws := startPeers(t, 1)
	want := textPairs(10, 32)
	seedStore(ws[0], 5, 2, [][]mapreduce.Pair{nil, want})
	request := func(magic string, fields ...uint32) []byte {
		req := []byte(magic)
		for _, f := range fields {
			req = binary.LittleEndian.AppendUint32(req, f)
		}
		return req
	}
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", ws[0].addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	conn := dial()
	req := request("DPS3", 5, 2, 1)
	if len(req) != 16 {
		t.Fatalf("request is %d bytes", len(req))
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	got, stats, err := readResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("DPS3 request: %v", err)
	}
	if !reflect.DeepEqual(got, want) || stats.records != int64(len(want)) {
		t.Fatalf("DPS3 request returned %d pairs, want %d", len(got), len(want))
	}

	old := dial()
	if _, err := old.Write(request("DPS2", 5, 2, 1, 1024)); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if n, err := old.Read(b[:]); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("DPS2 request: read %d bytes, err %v; want the connection closed unanswered", n, err)
	}
}

func TestShuffleStreamMidStreamAbortIsTransient(t *testing.T) {
	ws := startPeers(t, 2)
	seedStore(ws[0], 7, 0, [][]mapreduce.Pair{pastOneChunk()})
	ws[0].shuffleChunkHook = func(_, _, _, chunk int) error {
		if chunk >= 1 {
			return errors.New("injected mid-stream abort")
		}
		return nil
	}
	_, _, err := ws[1].fetchStream(ws[0].addr, 7, 0, 0)
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
	c, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, bad := range []string{"", "127.0.0.1", "127.0.0.1:", "no port here"} {
		var reply RegisterReply
		err := c.Call("Master.Register", &RegisterArgs{ShuffleAddr: bad}, &reply)
		if err == nil {
			t.Errorf("ShuffleAddr %q: registration accepted as worker %d", bad, reply.WorkerID)
		}
	}
	if n := m.WorkerCount(); n != 0 {
		t.Fatalf("%d workers admitted by rejected registrations", n)
	}
	var reply RegisterReply
	if err := c.Call("Master.Register", &RegisterArgs{ShuffleAddr: "127.0.0.1:10"}, &reply); err != nil {
		t.Fatalf("well-formed registration refused: %v", err)
	}
}

// TestFetchWithoutShuffleAddrIsLostOutput: a location whose shuffle
// listener no longer answers is lost once the retries run out, so the
// reduce reports the map in FailedMaps and the master re-executes it.
func TestFetchWithoutShuffleAddrIsLostOutput(t *testing.T) {
	ws := startPeers(t, 1)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := lis.Addr().String()
	lis.Close()
	task := &GetTaskReply{JobID: 7, Maps: []MapLocation{{MapTaskID: 0, ShuffleAddr: closed}}}
	if _, _, failed := ws[0].fetchAll(task); !reflect.DeepEqual(failed, []int{0}) {
		t.Fatalf("failed maps %v, want [0]", failed)
	}
}

// StartWorker's listen address is the worker's one socket: the shuffle
// listener binds exactly there, and a peer fetches from that port.
func TestWorkerServesFetchesOnListenAddr(t *testing.T) {
	m, _ := startCluster(t, 0)
	ws := startPeers(t, 1)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	w, err := StartWorker(m.Addr(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Addr() != addr {
		t.Fatalf("worker listens on %s, asked for %s", w.Addr(), addr)
	}
	// Job 0 is the id every poll names while no job runs, so the polling
	// worker keeps this output.
	want := textPairs(10, 16)
	seedStore(w, 0, 0, [][]mapreduce.Pair{want})
	got, _, err := ws[0].fetchStream(addr, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetched %d pairs from %s, want %d", len(got), addr, len(want))
	}
}

// chunky emits enough data per map task that a partition holding five of
// its 40 records already streams as two chunks. The Map function runs once
// per input record, so recovery tests feed exactly one record per map task
// to make chunkyExecs a per-task execution count.
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
	RegisterJobs(map[string]JobFactory{"chunky": func(conf mapreduce.Conf) *mapreduce.Job {
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
				pad := bytes.Repeat([]byte{'p'}, shuffleChunkBytes/4)
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
	}})
}

func chunkyInput(n int) []mapreduce.Pair {
	input := make([]mapreduce.Pair, n)
	for i := range input {
		input[i] = mapreduce.Pair{Value: []byte(fmt.Sprintf("m%d", i))}
	}
	return input
}

// TestShuffleCompressionCountersEndToEnd runs a multi-chunk job and checks
// the wire counters: the transport sends every chunk as it is, so
// shuffle.wire.bytes.compressed (kept for the benchmark harness) equals
// shuffle.wire.bytes, which equals the bytes of the job's fetch spans, while
// the logical shuffle.bytes metric is untouched by the transport.
func TestShuffleCompressionCountersEndToEnd(t *testing.T) {
	m, _ := startCluster(t, 3)
	resetChunkyExecs()

	factory, err := lookupJob("chunky")
	if err != nil {
		t.Fatal(err)
	}
	job := factory(nil)
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
	if sent != wire {
		t.Fatalf("%s = %d, %s = %d", mapreduce.CtrShuffleWireBytesCompressed, sent, mapreduce.CtrShuffleWireBytes, wire)
	}
	var fetched int64
	for _, sp := range res.Trace.Spans {
		if sp.Phase == obs.PhaseFetch {
			fetched += sp.Bytes
		}
	}
	if fetched != wire {
		t.Fatalf("fetch spans carry %d bytes, %s = %d", fetched, mapreduce.CtrShuffleWireBytes, wire)
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

	factory, err := lookupJob("chunky")
	if err != nil {
		t.Fatal(err)
	}
	job := factory(nil)
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

	factory, err := lookupJob("chunky")
	if err != nil {
		t.Fatal(err)
	}
	job := factory(nil)
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
