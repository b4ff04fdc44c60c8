package rpcmr

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfsio"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Master coordinates a worker fleet and implements mapreduce.Engine, so a
// pipeline moves from in-process to a cluster by handing dag.NewSession a
// Master instead of a LocalEngine. One job runs at a time (the DAG scheduler
// reads MaxConcurrentJobs and serializes); Run blocks until the job
// finishes or fails permanently.
type Master struct {
	// LeaseTimeout re-queues a task not completed within the lease
	// (default 60s; tests shrink it to exercise recovery).
	LeaseTimeout time.Duration
	// SpeculativeFactor enables straggler mitigation: when every task is
	// assigned and one has been running more than SpeculativeFactor times
	// the median completed-task duration (and at least 100ms), an idle
	// worker gets a backup attempt; the first completion wins, the loser
	// is ignored. 0 disables speculation.
	SpeculativeFactor float64
	// Events, when non-nil, receives scheduler and progress events.
	Events obs.Sink
	// MonitorInterval, when >0 and Events is set, emits periodic counter
	// snapshots (records/s, shuffle MB/s) while a job runs.
	MonitorInterval time.Duration

	lis  net.Listener
	addr string

	mu         sync.Mutex
	cond       *sync.Cond
	workers    map[int]*workerInfo
	nextWorker int
	jobSeq     int
	cur        *jobRun
	history    []JobRecord
	closed     bool
}

var _ mapreduce.Engine = (*Master)(nil)

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
	// Workers is how many distinct workers ran this job's tasks.
	Workers int
	// MapDist / ReduceDist summarize per-phase task wall times (median,
	// max, straggler count) from the worker-reported spans.
	MapDist    obs.TaskDist
	ReduceDist obs.TaskDist

	spans []obs.Span // worker-reported spans, served by Master.Traces
}

type workerInfo struct {
	id          int
	addr        string
	shuffleAddr string
	lastSeen    time.Time
}

type taskStatus int

const (
	taskIdle taskStatus = iota
	taskRunning
	taskDone
)

type taskSlot struct {
	status  taskStatus
	worker  int
	started time.Time
	// backup marks that a speculative duplicate attempt was launched.
	backup bool
}

type jobRun struct {
	id          int
	job         *mapreduce.Job
	splits      [][]mapreduce.Pair
	dfsNameNode string
	dfsParts    []string
	nReduce     int
	maps        []taskSlot
	mapAddr     []string // worker addr holding each completed map task's data
	mapShuffle  []string // that worker's streaming shuffle addr ("" = RPC only)
	reduces     []taskSlot
	outputs     [][]mapreduce.Pair
	counters    *mapreduce.Counters
	spans       []obs.Span
	err         error
	done        bool
	// completed task durations, for the speculative-execution median.
	mapDurations    []time.Duration
	reduceDurations []time.Duration
}

// NewMaster starts a master listening on addr ("host:port"; ":0" picks a
// free port). Close releases the listener.
func NewMaster(addr string) (*Master, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcmr: master listen: %w", err)
	}
	m := &Master{
		LeaseTimeout: 60 * time.Second,
		lis:          lis,
		addr:         lis.Addr().String(),
		workers:      make(map[int]*workerInfo),
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

// sink resolves the event destination: Events when set, else discard.
func (m *Master) sink() obs.Sink {
	if m.Events != nil {
		return m.Events
	}
	return obs.Discard
}

func (m *Master) logf(format string, args ...any) {
	m.sink().Event("scheduler", format, args...)
}

// MaxConcurrentJobs reports the master's job concurrency: one. The master
// serializes jobs (concurrent Run calls fail with "a job is already
// running"), so the DAG scheduler runs nodes one at a time against it.
func (m *Master) MaxConcurrentJobs() int { return 1 }

// Abort fails the currently running job (if any) with the given reason and
// wakes its Run call. Idle masters ignore it. Unlike Close, the master
// stays alive: workers keep polling and the next Run is accepted — the
// graceful-SIGINT path for `mrd master`.
func (m *Master) Abort(reason error) {
	if reason == nil {
		reason = fmt.Errorf("rpcmr: job aborted")
	}
	m.mu.Lock()
	if run := m.cur; run != nil && !run.done {
		run.err = fmt.Errorf("rpcmr: job %q aborted: %w", run.job.Name, reason)
		run.done = true
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// Run implements mapreduce.Engine: it schedules the job across the
// registered workers and blocks until completion. The job's name must be
// registered (with an identical factory) on every worker. Cancelling ctx
// aborts the job: outstanding task attempts finish on their workers but
// their completions are discarded as stale.
func (m *Master) Run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) (*mapreduce.Result, error) {
	return m.run(ctx, job, input, "", nil)
}

// RunDFS runs a job whose input is staged in the mini-DFS under
// inputPrefix (one map task per part file). Workers read their parts from
// the DFS directly — the master never touches the input bytes.
func (m *Master) RunDFS(ctx context.Context, job *mapreduce.Job, nameNodeAddr, inputPrefix string) (*mapreduce.Result, error) {
	fsc, err := dfs.NewClient(nameNodeAddr)
	if err != nil {
		return nil, err
	}
	parts, err := dfsio.ListParts(fsc, inputPrefix)
	fsc.Close()
	if err != nil {
		return nil, err
	}
	return m.run(ctx, job, nil, nameNodeAddr, parts)
}

func (m *Master) run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair, dfsNameNode string, dfsParts []string) (*mapreduce.Result, error) {
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
	var splits [][]mapreduce.Pair
	if dfsParts == nil {
		splits = mapreduce.SplitInput(input, nMaps)
	} else {
		splits = make([][]mapreduce.Pair, len(dfsParts))
	}
	m.jobSeq++
	run := &jobRun{
		id:          m.jobSeq,
		job:         job,
		splits:      splits,
		dfsNameNode: dfsNameNode,
		dfsParts:    dfsParts,
		nReduce:     nReduce,
		maps:        make([]taskSlot, len(splits)),
		mapAddr:     make([]string, len(splits)),
		mapShuffle:  make([]string, len(splits)),
		reduces:     make([]taskSlot, nReduce),
		outputs:     make([][]mapreduce.Pair, nReduce),
		counters:    mapreduce.NewCounters(),
	}
	m.cur = run
	m.logf("job %d %q: %d maps, %d reduces, %d workers", run.id, job.Name, len(splits), nReduce, nWorkers)
	var mon *obs.Monitor
	if m.MonitorInterval > 0 && m.Events != nil {
		mon = obs.StartMonitor(job.Name, m.MonitorInterval, run.counters.Snapshot, m.sink())
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
	workers := make([]string, 0, len(m.workers))
	for _, w := range m.workers {
		workers = append(workers, w.addr)
	}
	m.mu.Unlock()
	if mon != nil {
		mon.Stop()
	}

	if closed && err == nil && !finished {
		return nil, fmt.Errorf("rpcmr: master closed mid-job")
	}
	// Best-effort cleanup of intermediate data on all workers.
	for _, addr := range workers {
		if c, derr := dialWorker(addr); derr == nil {
			var rep CleanupReply
			c.Call("Worker.Cleanup", &CleanupArgs{JobID: run.id}, &rep)
			c.Close()
		}
	}
	wall := time.Since(start)
	snap := run.counters.Snapshot()
	distinct := map[int]bool{}
	for _, s := range run.spans {
		distinct[s.Worker] = true
	}
	record := JobRecord{
		ID:         run.id,
		Name:       run.job.Name,
		Maps:       len(run.maps),
		Reduces:    run.nReduce,
		Wall:       wall,
		Failed:     err != nil,
		Counters:   snap,
		Workers:    len(distinct),
		MapDist:    obs.DistOf(run.spans, obs.PhaseMap),
		ReduceDist: obs.DistOf(run.spans, obs.PhaseReduce),
		spans:      run.spans,
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
// execution order — the job-tracker view an operator reads off `mrd
// master`.
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
		return fmt.Errorf("rpcmr: register %q: ShuffleAddr %q is not host:port", args.Addr, args.ShuffleAddr)
	}
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("rpcmr: master closed")
	}
	m.nextWorker++
	id := m.nextWorker
	m.workers[id] = &workerInfo{id: id, addr: args.Addr, shuffleAddr: args.ShuffleAddr, lastSeen: time.Now()}
	reply.WorkerID = id
	m.logf("worker %d registered at %s", id, args.Addr)
	return nil
}

// GetTask hands the polling worker its next task, if any.
func (r *masterRPC) GetTask(args *GetTaskArgs, reply *GetTaskReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		reply.Kind = TaskShutdown
		return nil
	}
	w, ok := m.workers[args.WorkerID]
	if !ok {
		return fmt.Errorf("rpcmr: unknown worker %d", args.WorkerID)
	}
	w.lastSeen = time.Now()
	run := m.cur
	if run == nil || run.done {
		reply.Kind = TaskWait
		return nil
	}
	now := time.Now()
	assignable := func(s *taskSlot) bool {
		return s.status == taskIdle ||
			(s.status == taskRunning && now.Sub(s.started) > m.LeaseTimeout)
	}
	// speculatable reports whether a running task qualifies for a backup
	// attempt on another worker.
	speculatable := func(s *taskSlot, durations []time.Duration) bool {
		if m.SpeculativeFactor <= 0 || s.status != taskRunning || s.backup ||
			s.worker == args.WorkerID || len(durations) == 0 {
			return false
		}
		age := now.Sub(s.started)
		median := medianDuration(durations)
		return age > 100*time.Millisecond && age > time.Duration(m.SpeculativeFactor*float64(median))
	}
	assignMap := func(ti int) {
		reply.Kind = TaskMap
		reply.JobID = run.id
		reply.JobName = run.job.Name
		reply.Conf = run.job.Conf
		reply.TaskID = ti
		reply.NumReduces = run.nReduce
		if run.dfsParts != nil {
			reply.DFSNameNode = run.dfsNameNode
			reply.DFSPart = run.dfsParts[ti]
		} else {
			reply.Split = run.splits[ti]
		}
	}
	// Map phase first.
	allMapsDone := true
	for ti := range run.maps {
		s := &run.maps[ti]
		if s.status != taskDone {
			allMapsDone = false
			if assignable(s) {
				s.status = taskRunning
				s.worker = args.WorkerID
				s.started = now
				assignMap(ti)
				return nil
			}
		}
	}
	if !allMapsDone {
		// All map tasks assigned; consider a speculative backup.
		for ti := range run.maps {
			s := &run.maps[ti]
			if speculatable(s, run.mapDurations) {
				s.backup = true
				m.logf("job %d: speculative map %d on worker %d (primary %d)",
					run.id, ti, args.WorkerID, s.worker)
				assignMap(ti)
				return nil
			}
		}
		reply.Kind = TaskWait
		return nil
	}
	// Reduce phase.
	locations := make([]MapLocation, len(run.maps))
	for ti := range run.maps {
		locations[ti] = MapLocation{MapTaskID: ti, WorkerAddr: run.mapAddr[ti], ShuffleAddr: run.mapShuffle[ti]}
	}
	assignReduce := func(ti int) {
		reply.Kind = TaskReduce
		reply.JobID = run.id
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
			s.worker = args.WorkerID
			s.started = now
			assignReduce(ti)
			return nil
		}
	}
	for ti := range run.reduces {
		s := &run.reduces[ti]
		if s.status != taskDone && speculatable(s, run.reduceDurations) {
			s.backup = true
			m.logf("job %d: speculative reduce %d on worker %d (primary %d)",
				run.id, ti, args.WorkerID, s.worker)
			assignReduce(ti)
			return nil
		}
	}
	reply.Kind = TaskWait
	return nil
}

// medianDuration returns the median of a non-empty slice.
func medianDuration(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// CompleteTask records a task attempt's outcome.
func (r *masterRPC) CompleteTask(args *CompleteArgs, reply *CompleteReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	run := m.cur
	if run == nil || run.id != args.JobID || run.done {
		return nil // stale completion from a previous job or attempt
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
					run.mapAddr[mt] = ""
					run.mapShuffle[mt] = ""
				}
			}
			if args.Kind == TaskReduce && args.TaskID < len(run.reduces) {
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
	switch args.Kind {
	case TaskMap:
		s := &run.maps[args.TaskID]
		if s.status == taskDone {
			return nil // duplicate attempt; first one won
		}
		run.mapDurations = append(run.mapDurations, time.Since(s.started))
		s.status = taskDone
		if w, ok := m.workers[args.WorkerID]; ok {
			run.mapAddr[args.TaskID] = w.addr
			run.mapShuffle[args.TaskID] = w.shuffleAddr
		}
		mergeCounters(run.counters, args.Counters)
		run.spans = append(run.spans, args.Spans...)
	case TaskReduce:
		s := &run.reduces[args.TaskID]
		if s.status == taskDone {
			return nil
		}
		run.reduceDurations = append(run.reduceDurations, time.Since(s.started))
		s.status = taskDone
		run.outputs[args.TaskID] = args.Output
		mergeCounters(run.counters, args.Counters)
		run.spans = append(run.spans, args.Spans...)
	default:
		return fmt.Errorf("rpcmr: bad completion kind %v", args.Kind)
	}
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

func dialWorker(addr string) (*rpc.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}
