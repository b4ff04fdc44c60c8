package rpcmr

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfsio"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Worker executes tasks for one master. It serves a one-method RPC surface
// of its own (cleanup), a streaming shuffle listener (transport.go), and
// polls the master for work.
type Worker struct {
	// PollInterval is the base polling period (default 20ms). While no
	// task is handed out the period backs off exponentially up to
	// PollMax, and resets on any real task — an idle fleet stops
	// hammering the master with GetTask chatter.
	PollInterval time.Duration
	// PollMax caps the idle backoff (default 250ms).
	PollMax time.Duration
	// Log, when non-nil, receives task events.
	Log func(format string, args ...any)

	id     int
	addr   string
	lis    net.Listener
	master *rpc.Client

	shuffleLis  net.Listener
	shuffleAddr string

	mu    sync.Mutex
	store map[storeKey][][]mapreduce.Pair // partitioned map outputs

	streamMu sync.Mutex
	streams  map[string][]*shuffleStream // idle shuffle conns per peer

	dfsMu      sync.Mutex
	dfsClients map[string]*dfs.Client

	// shuffleChunkHook, when set (tests), runs before each streamed chunk
	// is written; an error aborts the serving connection mid-stream.
	shuffleChunkHook func(jobID, mapTask, partition, chunk int) error

	quit chan struct{}
	done chan struct{}
}

type storeKey struct {
	jobID, mapTask int
}

// StartWorker launches a worker: it listens on listenAddr (":0" for any
// port), registers with the master, and begins polling in a goroutine.
// Close stops it.
func StartWorker(masterAddr, listenAddr string) (*Worker, error) {
	lis, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("rpcmr: worker listen: %w", err)
	}
	// The streaming shuffle gets its own listener on the same host, so
	// bulk partition bytes never contend with the net/rpc control plane.
	host, _, err := net.SplitHostPort(lis.Addr().String())
	if err != nil {
		host = ""
	}
	shuffleLis, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		lis.Close()
		return nil, fmt.Errorf("rpcmr: worker shuffle listen: %w", err)
	}
	w := &Worker{
		PollInterval: 20 * time.Millisecond,
		PollMax:      250 * time.Millisecond,
		addr:         lis.Addr().String(),
		lis:          lis,
		shuffleLis:   shuffleLis,
		shuffleAddr:  shuffleLis.Addr().String(),
		store:        make(map[storeKey][][]mapreduce.Pair),
		streams:      make(map[string][]*shuffleStream),
		dfsClients:   make(map[string]*dfs.Client),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &workerRPC{w: w}); err != nil {
		lis.Close()
		shuffleLis.Close()
		return nil, err
	}
	go acceptLoop(lis, srv)
	go w.serveShuffleLoop(shuffleLis)

	conn, err := net.DialTimeout("tcp", masterAddr, 5*time.Second)
	if err != nil {
		lis.Close()
		shuffleLis.Close()
		return nil, fmt.Errorf("rpcmr: dial master: %w", err)
	}
	w.master = rpc.NewClient(conn)
	var reply RegisterReply
	if err := w.master.Call("Master.Register", &RegisterArgs{Addr: w.addr, ShuffleAddr: w.shuffleAddr}, &reply); err != nil {
		w.master.Close()
		lis.Close()
		shuffleLis.Close()
		return nil, fmt.Errorf("rpcmr: register: %w", err)
	}
	w.id = reply.WorkerID
	go w.loop()
	return w, nil
}

// Addr returns the worker's RPC address.
func (w *Worker) Addr() string { return w.addr }

// ID returns the master-assigned worker id.
func (w *Worker) ID() int { return w.id }

// Close stops the polling loop and releases sockets. Pending shuffle data
// is discarded, which the master treats as a worker failure and recovers
// from by re-executing the affected map tasks.
func (w *Worker) Close() error {
	close(w.quit)
	<-w.done
	w.master.Close()
	err := w.lis.Close()
	w.shuffleLis.Close()
	w.closeStreams()
	w.dfsMu.Lock()
	for _, c := range w.dfsClients {
		c.Close()
	}
	w.dfsClients = map[string]*dfs.Client{}
	w.dfsMu.Unlock()
	return err
}

// dfsClient returns a cached DFS client for the namenode.
func (w *Worker) dfsClient(nameNode string) (*dfs.Client, error) {
	w.dfsMu.Lock()
	defer w.dfsMu.Unlock()
	if c, ok := w.dfsClients[nameNode]; ok {
		return c, nil
	}
	c, err := dfs.NewClient(nameNode)
	if err != nil {
		return nil, err
	}
	w.dfsClients[nameNode] = c
	return c, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

func (w *Worker) loop() {
	defer close(w.done)
	// Idle polling backs off exponentially from PollInterval to PollMax
	// and snaps back on any real task: a worker in the thick of a job
	// polls eagerly, an idle fleet stays quiet.
	idle := w.PollInterval
	for {
		select {
		case <-w.quit:
			return
		default:
		}
		var task GetTaskReply
		if err := w.master.Call("Master.GetTask", &GetTaskArgs{WorkerID: w.id}, &task); err != nil {
			// Master gone; retry briefly in case of transient error.
			select {
			case <-w.quit:
				return
			case <-time.After(w.PollInterval * 10):
			}
			continue
		}
		switch task.Kind {
		case TaskShutdown:
			return
		case TaskWait:
			select {
			case <-w.quit:
				return
			case <-time.After(idle):
			}
			if idle *= 2; idle > w.PollMax {
				idle = w.PollMax
			}
		case TaskMap:
			w.runMap(&task)
			idle = w.PollInterval
		case TaskReduce:
			w.runReduce(&task)
			idle = w.PollInterval
		}
	}
}

// report sends a completion (or failure) to the master, best-effort.
func (w *Worker) report(args *CompleteArgs) {
	var reply CompleteReply
	if err := w.master.Call("Master.CompleteTask", args, &reply); err != nil {
		w.logf("worker %d: report failed: %v", w.id, err)
	}
}

func (w *Worker) runMap(task *GetTaskReply) {
	args := &CompleteArgs{WorkerID: w.id, JobID: task.JobID, Kind: TaskMap, TaskID: task.TaskID}
	factory, err := lookupJob(task.JobName)
	if err != nil {
		args.Err = err.Error()
		w.report(args)
		return
	}
	job := factory(task.Conf)
	records := task.Split
	if task.DFSPart != "" {
		fsc, err := w.dfsClient(task.DFSNameNode)
		if err != nil {
			args.Err = err.Error()
			w.report(args)
			return
		}
		records, err = dfsio.LoadPart(fsc, task.DFSPart)
		if err != nil {
			args.Err = err.Error()
			w.report(args)
			return
		}
	}
	counters := mapreduce.NewCounters()
	// No spilling here: partitions are served to reducers from memory.
	out, spans, err := mapreduce.ExecuteMapTask(job, task.TaskID, task.NumReduces, records, mapreduce.Spill{}, counters)
	if err != nil {
		args.Err = err.Error()
		w.report(args)
		return
	}
	w.mu.Lock()
	w.store[storeKey{jobID: task.JobID, mapTask: task.TaskID}] = out.Mem
	w.mu.Unlock()
	args.Counters = counters.Snapshot()
	args.Spans = w.tagSpans(spans, task.JobID)
	w.logf("worker %d: map %d of job %d done", w.id, task.TaskID, task.JobID)
	w.report(args)
}

func (w *Worker) runReduce(task *GetTaskReply) {
	args := &CompleteArgs{WorkerID: w.id, JobID: task.JobID, Kind: TaskReduce, TaskID: task.TaskID}
	factory, err := lookupJob(task.JobName)
	if err != nil {
		args.Err = err.Error()
		w.report(args)
		return
	}
	job := factory(task.Conf)
	fetchStart := time.Now()
	sorted, fetchSpans, failed := w.fetchAll(task)
	if len(failed) > 0 {
		args.Err = fmt.Sprintf("fetch failed for %d map outputs", len(failed))
		args.FailedMaps = failed
		w.report(args)
		return
	}
	counters := mapreduce.NewCounters()
	var wireRaw, wireSent int64
	for _, s := range fetchSpans {
		wireRaw += s.rawBytes
		wireSent += s.span.Bytes
	}
	if wireRaw > 0 {
		counters.Add(mapreduce.CtrShuffleWireBytes, wireRaw)
		counters.Add(mapreduce.CtrShuffleWireBytesCompressed, wireSent)
	}
	out, spans, err := mapreduce.ExecuteReduceTask(job, task.TaskID, task.NumReduces, sorted, nil, counters)
	if err != nil {
		args.Err = err.Error()
		w.report(args)
		return
	}
	// Fold the shuffle-fetch time into the reduce span, keeping the
	// reduce-span wall comparable with the local engine; the wire-level
	// detail rides in the extra per-fetch PhaseFetch spans.
	for i := range spans {
		if spans[i].Phase == obs.PhaseReduce {
			spans[i].Start = fetchStart
			spans[i].Wall = time.Since(fetchStart)
		}
	}
	for _, fs := range fetchSpans {
		spans = append(spans, fs.span)
	}
	args.Output = out
	args.Counters = counters.Snapshot()
	args.Spans = w.tagSpans(spans, task.JobID)
	w.logf("worker %d: reduce %d of job %d done (%d records)", w.id, task.TaskID, task.JobID, len(out))
	w.report(args)
}

// fetchSpan pairs a PhaseFetch span (Bytes = actual wire bytes) with the
// pre-compression volume needed for the wire counters.
type fetchSpan struct {
	span     obs.Span
	rawBytes int64
}

// fetchAll retrieves every map output for a reduce task, fetching
// concurrently with a bounded worker pool. Slot order follows task.Maps,
// so the downstream k-way merge sees sources in the same deterministic
// order as a sequential fetch. Transient failures are retried with
// exponential backoff before the map output is declared lost; the
// returned failed list names map tasks the master must re-execute.
func (w *Worker) fetchAll(task *GetTaskReply) ([][]mapreduce.Pair, []fetchSpan, []int) {
	o := newFetchOptions(task.Conf)
	slots := make([][]mapreduce.Pair, len(task.Maps))
	spans := make([]*fetchSpan, len(task.Maps))
	errs := make([]error, len(task.Maps))

	sem := make(chan struct{}, shuffleFetchers)
	var wg sync.WaitGroup
	for i, loc := range task.Maps {
		wg.Add(1)
		go func(i int, loc MapLocation) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			slots[i], spans[i], errs[i] = w.fetchOne(loc, task, o)
		}(i, loc)
	}
	wg.Wait()

	var failed []int
	var fetchSpans []fetchSpan
	for i := range slots {
		if errs[i] != nil {
			failed = append(failed, task.Maps[i].MapTaskID)
			continue
		}
		if spans[i] != nil {
			fetchSpans = append(fetchSpans, *spans[i])
		}
	}
	if len(failed) > 0 {
		return nil, nil, failed
	}
	return slots, fetchSpans, nil
}

// fetchOne retrieves a single map output: straight from the local store
// when the data is ours, else over the streaming transport. Only remote
// fetches produce a fetchSpan (the wire-level observation).
func (w *Worker) fetchOne(loc MapLocation, task *GetTaskReply, o fetchOptions) ([]mapreduce.Pair, *fetchSpan, error) {
	if loc.WorkerAddr == w.addr {
		pairs, err := w.partitionForShuffle(task.JobID, loc.MapTaskID, task.TaskID)
		return pairs, nil, err
	}
	if loc.ShuffleAddr == "" {
		// Register refuses such workers, so this location cannot be dialled
		// and never could: the output is lost, the master re-executes it.
		return nil, nil, fmt.Errorf("%w: map %d on %s has no shuffle address", errShuffleMissing, loc.MapTaskID, loc.WorkerAddr)
	}
	var lastErr error
	for attempt := 0; attempt <= shuffleRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-w.quit:
				return nil, nil, lastErr
			case <-time.After(shuffleRetryBackoff << (attempt - 1)):
			}
		}
		start := time.Now()
		pairs, stats, err := w.fetchStream(loc.ShuffleAddr, task.JobID, loc.MapTaskID, task.TaskID, o)
		if err == nil {
			return pairs, &fetchSpan{
				span: obs.Span{
					Job: task.JobName, Phase: obs.PhaseFetch, Task: task.TaskID,
					Start: start, Wall: time.Since(start),
					Records: stats.records, Bytes: stats.wireBytes,
				},
				rawBytes: stats.rawBytes,
			}, nil
		}
		lastErr = err
		if errors.Is(err, errShuffleMissing) {
			// The peer answered: the data is gone. Only the master can
			// fix that by re-executing the map task.
			break
		}
	}
	return nil, nil, lastErr
}

// tagSpans stamps this worker's identity and the job id on task spans
// before they travel back to the master.
func (w *Worker) tagSpans(spans []obs.Span, jobID int) []obs.Span {
	for i := range spans {
		spans[i].Worker = w.id
		spans[i].JobID = jobID
	}
	return spans
}

// workerRPC is the worker's RPC surface for the master.
type workerRPC struct {
	w *Worker
}

// Cleanup drops a job's intermediate data.
func (r *workerRPC) Cleanup(args *CleanupArgs, reply *CleanupReply) error {
	w := r.w
	w.mu.Lock()
	for k := range w.store {
		if k.jobID == args.JobID {
			delete(w.store, k)
		}
	}
	w.mu.Unlock()
	return nil
}
