package rpcmr

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Master coordinates a worker fleet and implements mapreduce.Engine, so a
// pipeline moves from in-process to a cluster by handing dag.NewSession a
// Master instead of a LocalEngine. One job runs at a time (a concurrent
// Run call fails with "a job is already running"; a pipeline runs its jobs
// one at a time anyway); Run blocks until the job finishes or fails
// permanently.
type Master struct {
	// Log, when non-nil, receives scheduler and progress events.
	Log func(format string, args ...any)
	// MonitorInterval, when >0 and Log is set, logs periodic counter
	// snapshots (records/s, shuffle MB/s) while a job runs.
	MonitorInterval time.Duration

	lis  net.Listener
	addr string
	// leaseTimeout re-queues a task not completed within the lease
	// (defaultLeaseTimeout; recovery tests shrink it).
	leaseTimeout time.Duration

	mu         sync.Mutex
	cond       *sync.Cond
	workers    map[int]string // worker id → its shuffle address
	nextWorker int
	jobSeq     int
	cur        *jobRun
	history    []JobRecord
	closed     bool
}

var _ mapreduce.Engine = (*Master)(nil)

// defaultLeaseTimeout is how long a task attempt may run before its worker
// is presumed dead and the task is handed out again.
const defaultLeaseTimeout = 60 * time.Second

// JobRecord summarizes one completed job for Master.History. It is the
// master's one record per job: Traces is read off the same entries.
type JobRecord struct {
	ID       int
	Name     string
	Maps     int
	Reduces  int
	Wall     time.Duration
	Failed   bool
	Counters map[string]int64

	spans []obs.Span // worker-reported spans, served by Master.Traces
}

type taskStatus int

const (
	taskIdle taskStatus = iota
	taskRunning
	taskDone
)

type taskSlot struct {
	status  taskStatus
	started time.Time
}

type jobRun struct {
	id         int
	job        *mapreduce.Job
	splits     [][]mapreduce.Pair
	nReduce    int
	maps       []taskSlot
	mapShuffle []string // shuffle addr of the worker holding each completed map task's data
	reduces    []taskSlot
	outputs    [][]mapreduce.Pair
	counters   *mapreduce.Counters
	spans      []obs.Span
	err        error
	done       bool
}

// NewMaster starts a master listening on addr ("host:port"; ":0" picks a
// free port). Close releases the listener.
func NewMaster(addr string) (*Master, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcmr: master listen: %w", err)
	}
	m := &Master{
		lis:          lis,
		addr:         lis.Addr().String(),
		leaseTimeout: defaultLeaseTimeout,
		workers:      make(map[int]string),
	}
	m.cond = sync.NewCond(&m.mu)
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", &masterRPC{m: m}); err != nil {
		lis.Close()
		return nil, err
	}
	go acceptLoop(lis, srv)
	return m, nil
}

func acceptLoop(lis net.Listener, srv *rpc.Server) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // listener closed
		}
		go srv.ServeConn(conn)
	}
}

// Addr returns the master's dialable address.
func (m *Master) Addr() string { return m.addr }

// Close shuts the master down; subsequent Runs fail.
func (m *Master) Close() error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	return m.lis.Close()
}

// WorkerCount returns the number of registered workers.
func (m *Master) WorkerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers)
}

// WaitWorkers blocks until at least n workers have registered or the
// timeout elapses.
func (m *Master) WaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if m.WorkerCount() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rpcmr: only %d/%d workers after %v", m.WorkerCount(), n, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (m *Master) logf(format string, args ...any) {
	if m.Log != nil {
		m.Log(format, args...)
	}
}

// Run implements mapreduce.Engine: it schedules the job across the
// registered workers and blocks until completion. The job's name must be
// registered (with an identical factory) on every worker. Cancelling ctx
// aborts the job: outstanding task attempts finish on their workers but
// their completions are discarded as stale.
func (m *Master) Run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) (*mapreduce.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("rpcmr: job %q: %w", job.Name, err)
	}
	start := time.Now()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("rpcmr: master closed")
	}
	if m.cur != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("rpcmr: a job is already running")
	}
	nWorkers := len(m.workers)
	if nWorkers == 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("rpcmr: no workers registered")
	}
	nMaps := job.NumMaps
	if nMaps <= 0 {
		nMaps = 2 * nWorkers
	}
	nReduce := job.NumReduces
	if nReduce <= 0 {
		nReduce = 2 * nWorkers
	}
	splits := mapreduce.SplitInput(input, nMaps)
	m.jobSeq++
	run := &jobRun{
		id:         m.jobSeq,
		job:        job,
		splits:     splits,
		nReduce:    nReduce,
		maps:       make([]taskSlot, len(splits)),
		mapShuffle: make([]string, len(splits)),
		reduces:    make([]taskSlot, nReduce),
		outputs:    make([][]mapreduce.Pair, nReduce),
		counters:   mapreduce.NewCounters(),
	}
	m.cur = run
	m.logf("job %d %q: %d maps, %d reduces, %d workers", run.id, job.Name, len(splits), nReduce, nWorkers)
	var mon *obs.Monitor
	if m.MonitorInterval > 0 && m.Log != nil {
		mon = obs.StartMonitor(job.Name, m.MonitorInterval, run.counters.Snapshot, m.Log)
	}
	// Cancellation watcher: ctx.Done fails this run and wakes the wait
	// loop below; workers' in-flight attempts complete but are dropped as
	// stale once m.cur moves on.
	watchDone := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				m.mu.Lock()
				if !run.done {
					run.err = fmt.Errorf("rpcmr: job %q: %w", run.job.Name, ctx.Err())
					run.done = true
					m.cond.Broadcast()
				}
				m.mu.Unlock()
			case <-watchDone:
			}
		}()
	}
	for !run.done && !m.closed {
		m.cond.Wait()
	}
	close(watchDone)
	err := run.err
	finished := run.done
	m.cur = nil
	closed := m.closed
	m.mu.Unlock()
	if mon != nil {
		mon.Stop()
	}

	if closed && err == nil && !finished {
		return nil, fmt.Errorf("rpcmr: master closed mid-job")
	}
	wall := time.Since(start)
	record := JobRecord{
		ID:       run.id,
		Name:     run.job.Name,
		Maps:     len(run.maps),
		Reduces:  run.nReduce,
		Wall:     wall,
		Failed:   err != nil,
		Counters: run.counters.Snapshot(),
		spans:    run.spans,
	}
	m.mu.Lock()
	m.history = append(m.history, record)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var output []mapreduce.Pair
	for _, ps := range run.outputs {
		output = append(output, ps...)
	}
	trace := record.trace()
	return &mapreduce.Result{Output: output, Counters: run.counters, Wall: wall, Trace: &trace}, nil
}

func (r *JobRecord) trace() obs.JobTrace {
	return obs.JobTrace{Job: r.Name, ID: r.ID, Wall: r.Wall, Spans: r.spans, Counters: r.Counters}
}

// Traces returns the trace of every successfully completed job, in order —
// the non-failed entries of History.
func (m *Master) Traces() []obs.JobTrace {
	m.mu.Lock()
	defer m.mu.Unlock()
	var traces []obs.JobTrace
	for i := range m.history {
		if !m.history[i].Failed {
			traces = append(traces, m.history[i].trace())
		}
	}
	return traces
}

// History returns records of every job this master has completed, in
// execution order — the job-tracker view the driver reads.
func (m *Master) History() []JobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]JobRecord(nil), m.history...)
}

// masterRPC is the RPC facade (separate type so Master's exported methods
// stay engine-facing).
type masterRPC struct {
	m *Master
}

// Register signs a worker on. The streaming shuffle listener is the only
// way reducers reach a worker's map outputs, so a registration without a
// dialable host:port there is refused outright rather than admitted as a
// worker whose every map task would later read as lost.
func (r *masterRPC) Register(args *RegisterArgs, reply *RegisterReply) error {
	if _, port, err := net.SplitHostPort(args.ShuffleAddr); err != nil || port == "" {
		return fmt.Errorf("rpcmr: register: ShuffleAddr %q is not host:port", args.ShuffleAddr)
	}
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("rpcmr: master closed")
	}
	m.nextWorker++
	id := m.nextWorker
	m.workers[id] = args.ShuffleAddr
	reply.WorkerID = id
	m.logf("worker %d registered at %s", id, args.ShuffleAddr)
	return nil
}

// GetTask hands the polling worker its next task, if any. The reply names
// the live job (0 for none) whatever its kind: that is how a worker learns
// which stored map outputs it may drop, so the master never dials a worker.
func (r *masterRPC) GetTask(args *GetTaskArgs, reply *GetTaskReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		reply.Kind = TaskShutdown
		return nil
	}
	if _, ok := m.workers[args.WorkerID]; !ok {
		return fmt.Errorf("rpcmr: unknown worker %d", args.WorkerID)
	}
	reply.Kind = TaskWait
	run := m.cur
	if run == nil || run.done {
		return nil
	}
	reply.JobID = run.id
	now := time.Now()
	assignable := func(s *taskSlot) bool {
		return s.status == taskIdle ||
			(s.status == taskRunning && now.Sub(s.started) > m.leaseTimeout)
	}
	assignMap := func(ti int) {
		reply.Kind = TaskMap
		reply.JobName = run.job.Name
		reply.Conf = run.job.Conf
		reply.TaskID = ti
		reply.NumReduces = run.nReduce
		reply.Split = run.splits[ti]
	}
	// Map phase first.
	allMapsDone := true
	for ti := range run.maps {
		s := &run.maps[ti]
		if s.status != taskDone {
			allMapsDone = false
			if assignable(s) {
				s.status = taskRunning
				s.started = now
				assignMap(ti)
				return nil
			}
		}
	}
	if !allMapsDone {
		return nil
	}
	// Reduce phase.
	locations := make([]MapLocation, len(run.maps))
	for ti := range run.maps {
		locations[ti] = MapLocation{MapTaskID: ti, ShuffleAddr: run.mapShuffle[ti]}
	}
	assignReduce := func(ti int) {
		reply.Kind = TaskReduce
		reply.JobName = run.job.Name
		reply.Conf = run.job.Conf
		reply.TaskID = ti
		reply.NumReduces = run.nReduce
		reply.Maps = locations
	}
	for ti := range run.reduces {
		s := &run.reduces[ti]
		if s.status != taskDone && assignable(s) {
			s.status = taskRunning
			s.started = now
			assignReduce(ti)
			return nil
		}
	}
	return nil
}

// CompleteTask records a task attempt's outcome. A report naming a task
// kind or ID the current job does not have is refused with an error: the
// arguments come off the network, and a bad index must not take the master
// down.
func (r *masterRPC) CompleteTask(args *CompleteArgs, reply *CompleteReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	run := m.cur
	if run == nil || run.id != args.JobID || run.done {
		return nil // stale completion from a previous job or attempt
	}
	var slots []taskSlot
	switch args.Kind {
	case TaskMap:
		slots = run.maps
	case TaskReduce:
		slots = run.reduces
	default:
		return fmt.Errorf("rpcmr: bad completion kind %v", args.Kind)
	}
	if args.TaskID < 0 || args.TaskID >= len(slots) {
		return fmt.Errorf("rpcmr: completion for %v task %d of job %d, which has %d", args.Kind, args.TaskID, run.id, len(slots))
	}
	if args.Err != "" {
		m.logf("job %d task %v/%d on worker %d failed: %s",
			run.id, args.Kind, args.TaskID, args.WorkerID, args.Err)
		if len(args.FailedMaps) > 0 {
			// Shuffle fetch failure: the named map outputs are lost.
			// Re-execute them and re-queue this reduce.
			for _, mt := range args.FailedMaps {
				if mt >= 0 && mt < len(run.maps) {
					run.maps[mt] = taskSlot{}
					run.mapShuffle[mt] = ""
				}
			}
			if args.Kind == TaskReduce {
				run.reduces[args.TaskID] = taskSlot{}
			}
			m.cond.Broadcast()
			return nil
		}
		// A deterministic task error fails the job: re-running the same
		// user code on the same data would fail again.
		run.err = fmt.Errorf("rpcmr: job %q task %d: %s", run.job.Name, args.TaskID, args.Err)
		run.done = true
		m.cond.Broadcast()
		return nil
	}
	s := &slots[args.TaskID]
	if s.status == taskDone {
		return nil // duplicate attempt (a lease expired); first one won
	}
	s.status = taskDone
	if args.Kind == TaskMap {
		run.mapShuffle[args.TaskID] = m.workers[args.WorkerID]
	} else {
		run.outputs[args.TaskID] = args.Output
	}
	mergeCounters(run.counters, args.Counters)
	run.spans = append(run.spans, args.Spans...)
	if allDone(run.reduces) && allDone(run.maps) {
		run.done = true
	}
	m.cond.Broadcast()
	return nil
}

func allDone(ss []taskSlot) bool {
	for i := range ss {
		if ss[i].status != taskDone {
			return false
		}
	}
	return true
}

func mergeCounters(dst *mapreduce.Counters, snap map[string]int64) {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst.Add(name, snap[name])
	}
}
