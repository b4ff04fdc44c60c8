// Package dag runs a pipeline's MapReduce jobs and keeps the one ledger of
// what ran. A pipeline is plain Go: it calls Session.Run once per job, in
// program order, passing earlier jobs' output slices along, and does any
// driver-side step between two jobs as an ordinary function call. An
// intermediate is freed by Go's own liveness once its last reader has it.
//
// The session:
//
//   - checks ctx before every job: once it is cancelled, Run starts no job
//     and returns ctx.Err();
//
//   - records every job that completes — stats and trace, in the order they
//     ran — and counts dag.* (jobs run, staged datasets and bytes); a
//     pipeline brackets its work with Session.Mark / Since to read back
//     exactly its own share, also on a session it shares with others.
//
// Nothing is cached across calls. The package keeps the name it had when
// pipelines were declared as job graphs, and its counters their dag.*
// prefix, because the benchmark harness (bench/, a module of its own)
// imports this path and reports those counters.
package dag

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Counter names the session reports (Session.Counters and Ledger.Counters).
const (
	// CtrNodes counts the jobs the session ran to completion.
	CtrNodes = "dag.nodes"
	// CtrStageDatasets / CtrStageBytes count Session.Stage calls and the
	// bytes they registered; an iterative pipeline that re-stages its input
	// every round shows up here.
	CtrStageDatasets = "dag.stage.datasets"
	CtrStageBytes    = "dag.stage.bytes"
)

// Options tunes a Session.
type Options struct {
	// Log, when non-nil, receives one line per completed job.
	Log func(format string, args ...any)
	// Trace, when non-nil, receives every completed job's trace as the job
	// completes — the hook CLI -trace flags use to stream a whole
	// pipeline's spans into one JSONL file.
	Trace *obs.Trace
}

// Session runs jobs on one mapreduce.Engine and is the ledger of what ran:
// the stats and trace of every completed job and the dag.* counters. Safe
// for sequential use; one Run executes at a time.
type Session struct {
	engine mapreduce.Engine
	opt    Options

	mu       sync.Mutex
	counters *mapreduce.Counters
	jobs     []mapreduce.JobStats // completed jobs, in run order
	jobTrace []obs.JobTrace       // their traces, same order
}

// NewSession binds a session to an engine: the in-process LocalEngine, an
// rpcmr.Master, or anything else with a Run method.
func NewSession(e mapreduce.Engine, opt Options) *Session {
	return &Session{
		engine:   e,
		opt:      opt,
		counters: mapreduce.NewCounters(),
	}
}

// Stage counts a pipeline input in dag.stage.* and returns it unchanged.
// Every call counts: an iterative pipeline stages its input once, before its
// loop. The slice must not be mutated afterwards.
func (s *Session) Stage(pairs []mapreduce.Pair) []mapreduce.Pair {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Add(CtrStageDatasets, 1)
	s.counters.Add(CtrStageBytes, mapreduce.PairsBytes(pairs))
	return pairs
}

// Counters returns a snapshot of the session's dag.* counters, summed
// over all runs.
func (s *Session) Counters() map[string]int64 { return s.Since(Mark{}).Counters }

// Jobs returns the stats of every job the session completed (failed jobs
// excluded), in the order they ran.
func (s *Session) Jobs() []mapreduce.JobStats { return s.Since(Mark{}).Jobs }

// Mark is a position in a session's ledger. A pipeline takes one before it
// touches the session — before Stage, whose bytes belong to the pipeline —
// and reads back its own share with Since, so pipelines sharing a session
// never see each other's jobs. The zero Mark is the session's start.
type Mark struct {
	jobs     int
	counters map[string]int64
}

// Mark returns the ledger's current position.
func (s *Session) Mark() Mark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Mark{jobs: len(s.jobs), counters: s.counters.Snapshot()}
}

// Ledger is what a session recorded over a stretch of its life.
type Ledger struct {
	// Jobs and JobTraces describe every completed job, index-aligned, in
	// the order they ran.
	Jobs      []mapreduce.JobStats
	JobTraces []obs.JobTrace
	// Counters holds the non-zero dag.* counter deltas.
	Counters map[string]int64
}

// Since returns what the session recorded after m.
func (s *Session) Since(m Mark) Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := Ledger{
		Jobs:      append([]mapreduce.JobStats(nil), s.jobs[m.jobs:]...),
		JobTraces: append([]obs.JobTrace(nil), s.jobTrace[m.jobs:]...),
		Counters:  make(map[string]int64),
	}
	for k, v := range s.counters.Snapshot() {
		if d := v - m.counters[k]; d != 0 {
			l.Counters[k] = d
		}
	}
	return l
}

// Run runs job on the session's engine over its inputs, concatenated in
// argument order, records it in the ledger and returns its output. ctx is
// checked first: a cancelled ctx starts no job and records nothing, and a
// job that fails leaves no ledger entry either. Treat the returned slice as
// read-only, like any job output.
func (s *Session) Run(ctx context.Context, job *mapreduce.Job, inputs ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var input []mapreduce.Pair
	if len(inputs) == 1 {
		input = inputs[0]
	} else {
		input = slices.Concat(inputs...)
	}
	res, err := s.engine.Run(ctx, job, input)
	if err != nil {
		return nil, fmt.Errorf("dag: job %q: %w", job.Name, err)
	}
	snap := s.record(job.Name, res)
	if s.opt.Log != nil {
		s.opt.Log("dag %-24s %8.3fs  out=%d shuffleB=%d dist=%d", job.Name, res.Wall.Seconds(), len(res.Output),
			snap[mapreduce.CtrShuffleBytes], snap[mapreduce.CtrDistanceComputations])
	}
	return res.Output, nil
}

// record enters one completed job in the ledger and forwards its trace to
// Options.Trace. Engines that number their own jobs (the rpcmr master) keep
// their IDs; for the rest the job's ledger position is its ID, stamped on its
// spans too so JSONL span lines attribute to the same id as their job line.
func (s *Session) record(name string, res *mapreduce.Result) map[string]int64 {
	snap := res.Counters.Snapshot()
	trace := obs.JobTrace{Job: name, Wall: res.Wall, Counters: snap}
	if res.Trace != nil {
		trace = *res.Trace
	}
	s.mu.Lock()
	s.counters.Add(CtrNodes, 1)
	s.jobs = append(s.jobs, mapreduce.JobStats{Name: name, Wall: res.Wall, Counters: snap, Records: len(res.Output)})
	if trace.ID == 0 {
		trace.ID = len(s.jobs)
	}
	for i := range trace.Spans {
		if trace.Spans[i].JobID == 0 {
			trace.Spans[i].JobID = trace.ID
		}
	}
	s.jobTrace = append(s.jobTrace, trace)
	s.mu.Unlock()
	if s.opt.Trace != nil {
		s.opt.Trace.Add(trace)
	}
	return snap
}
