package rpcmr

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Worker executes tasks for one master. It polls the master for work and
// serves its map outputs on a streaming shuffle listener (transport.go),
// its only socket: nothing but reducers ever dials it.
type Worker struct {
	// Log, when non-nil, receives task events.
	Log func(format string, args ...any)

	id     int
	addr   string // the shuffle listener's address
	lis    net.Listener
	master *rpc.Client

	mu    sync.Mutex
	store map[storeKey][][]mapreduce.Pair // partitioned map outputs

	streamMu sync.Mutex
	streams  map[string][]*shuffleStream // idle shuffle conns per peer

	// shuffleChunkHook, when set (tests), runs before each streamed chunk
	// is written; an error aborts the serving connection mid-stream.
	shuffleChunkHook func(jobID, mapTask, partition, chunk int) error

	quit chan struct{}
	done chan struct{}
}

// A worker polls the master every pollInterval while it has work. While no
// task is handed out the period doubles up to pollMax, and it resets on any
// real task — an idle fleet stops hammering the master with GetTask chatter.
const (
	pollInterval = 20 * time.Millisecond
	pollMax      = 250 * time.Millisecond
)

type storeKey struct {
	jobID, mapTask int
}

// StartWorker launches a worker: it binds its shuffle listener on
// listenAddr (":0" for any port), registers with the master, and begins
// polling in a goroutine. Close stops it.
func StartWorker(masterAddr, listenAddr string) (*Worker, error) {
	lis, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("rpcmr: worker listen: %w", err)
	}
	w := &Worker{
		addr:    lis.Addr().String(),
		lis:     lis,
		store:   make(map[storeKey][][]mapreduce.Pair),
		streams: make(map[string][]*shuffleStream),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go w.serveShuffleLoop(lis)

	conn, err := net.DialTimeout("tcp", masterAddr, 5*time.Second)
	if err != nil {
		lis.Close()
		return nil, fmt.Errorf("rpcmr: dial master: %w", err)
	}
	w.master = rpc.NewClient(conn)
	var reply RegisterReply
	if err := w.master.Call("Master.Register", &RegisterArgs{ShuffleAddr: w.addr}, &reply); err != nil {
		w.master.Close()
		lis.Close()
		return nil, fmt.Errorf("rpcmr: register: %w", err)
	}
	w.id = reply.WorkerID
	go w.loop()
	return w, nil
}

// Addr returns the worker's shuffle address.
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
	w.closeStreams()
	return err
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

func (w *Worker) loop() {
	defer close(w.done)
	// Idle polling backs off exponentially from pollInterval to pollMax
	// and snaps back on any real task: a worker in the thick of a job
	// polls eagerly, an idle fleet stays quiet.
	idle := pollInterval
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
			case <-time.After(pollInterval * 10):
			}
			continue
		}
		w.dropOtherJobs(task.JobID)
		switch task.Kind {
		case TaskShutdown:
			return
		case TaskWait:
			select {
			case <-w.quit:
				return
			case <-time.After(idle):
			}
			idle = min(2*idle, pollMax)
		case TaskMap:
			w.runMap(&task)
			idle = pollInterval
		case TaskReduce:
			w.runReduce(&task)
			idle = pollInterval
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
	counters := mapreduce.NewCounters()
	out, spans, err := mapreduce.ExecuteMapTask(job, task.TaskID, task.NumReduces, task.Split, counters)
	if err != nil {
		args.Err = err.Error()
		w.report(args)
		return
	}
	w.mu.Lock()
	w.store[storeKey{jobID: task.JobID, mapTask: task.TaskID}] = out
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
	var wire int64
	for _, s := range fetchSpans {
		wire += s.Bytes
	}
	if wire > 0 {
		counters.Add(mapreduce.CtrShuffleWireBytes, wire)
		counters.Add(mapreduce.CtrShuffleWireBytesCompressed, wire)
	}
	out, spans, err := mapreduce.ExecuteReduceTask(job, task.TaskID, task.NumReduces, sorted, counters)
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
	spans = append(spans, fetchSpans...)
	args.Output = out
	args.Counters = counters.Snapshot()
	args.Spans = w.tagSpans(spans, task.JobID)
	w.logf("worker %d: reduce %d of job %d done (%d records)", w.id, task.TaskID, task.JobID, len(out))
	w.report(args)
}

// fetchAll retrieves every map output for a reduce task, fetching
// concurrently with a bounded worker pool. Slot order follows task.Maps,
// so the downstream k-way merge sees sources in the same deterministic
// order as a sequential fetch. Transient failures are retried with
// exponential backoff before the map output is declared lost; the
// returned failed list names map tasks the master must re-execute; the
// returned spans are one PhaseFetch span per remote fetch (Bytes = wire
// bytes).
func (w *Worker) fetchAll(task *GetTaskReply) ([][]mapreduce.Pair, []obs.Span, []int) {
	slots := make([][]mapreduce.Pair, len(task.Maps))
	spans := make([]*obs.Span, len(task.Maps))
	errs := make([]error, len(task.Maps))

	sem := make(chan struct{}, shuffleFetchers)
	var wg sync.WaitGroup
	for i, loc := range task.Maps {
		wg.Add(1)
		go func(i int, loc MapLocation) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			slots[i], spans[i], errs[i] = w.fetchOne(loc, task)
		}(i, loc)
	}
	wg.Wait()

	var failed []int
	var fetchSpans []obs.Span
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
// fetches produce a span (the wire-level observation).
func (w *Worker) fetchOne(loc MapLocation, task *GetTaskReply) ([]mapreduce.Pair, *obs.Span, error) {
	if loc.ShuffleAddr == w.addr {
		pairs, err := w.partitionForShuffle(task.JobID, loc.MapTaskID, task.TaskID)
		return pairs, nil, err
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
		pairs, stats, err := w.fetchStream(loc.ShuffleAddr, task.JobID, loc.MapTaskID, task.TaskID)
		if err == nil {
			return pairs, &obs.Span{
				Job: task.JobName, Phase: obs.PhaseFetch, Task: task.TaskID,
				Start: start, Wall: time.Since(start),
				Records: stats.records, Bytes: stats.wireBytes,
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

// dropOtherJobs deletes the stored map outputs of every job but the live
// one, which each poll reply names (0: none). Outputs of a finished job go
// at the worker's next poll, a late attempt's as soon as it polls again.
func (w *Worker) dropOtherJobs(liveJob int) {
	w.mu.Lock()
	for k := range w.store {
		if k.jobID != liveJob {
			delete(w.store, k)
		}
	}
	w.mu.Unlock()
}
