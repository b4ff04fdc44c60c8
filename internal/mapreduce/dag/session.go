package dag

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Counter names the session reports (Session.Counters and per-run trace
// counters).
const (
	// CtrNodes counts job nodes executed.
	CtrNodes = "dag.nodes"
	// CtrTransforms counts transform nodes executed.
	CtrTransforms = "dag.transforms"
	// CtrStageDatasets / CtrStageBytes count Session.Stage calls and the
	// bytes they registered; an iterative pipeline that re-stages its input
	// every round shows up here.
	CtrStageDatasets = "dag.stage.datasets"
	CtrStageBytes    = "dag.stage.bytes"
	// CtrGCDatasets / CtrGCBytes count intermediate datasets freed once
	// their last consumer finished, and the bytes released.
	CtrGCDatasets = "dag.gc.datasets"
	CtrGCBytes    = "dag.gc.bytes"
)

// Options tunes a Session.
type Options struct {
	// Log, when non-nil, receives one line per completed node.
	Log func(format string, args ...any)
	// Trace, when non-nil, receives every executed job's trace as the job
	// completes and one "dag:<graph>" trace per Run with a span per node —
	// the hook CLI -trace flags use to stream a whole pipeline's spans into
	// one JSONL file.
	Trace *obs.Trace
}

// Session executes graphs over one mapreduce.Engine and is the ledger of
// what ran: the stats and trace of every job it executed, one node trace
// per Run and the dag.* counters. Safe for sequential use; one Run executes
// at a time.
type Session struct {
	engine mapreduce.Engine
	opt    Options

	mu       sync.Mutex
	counters *mapreduce.Counters
	jobs     []mapreduce.JobStats // executed job nodes, in run order
	jobTrace []obs.JobTrace       // their traces, same order
	traces   []obs.JobTrace       // one "dag:<graph>" trace per completed Run
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

// Stage registers a named input dataset on the session, usable by any
// graph it runs, and counts it in dag.stage.*. Every call counts: an
// iterative pipeline stages its input once, before its loop. The slice
// must not be mutated afterwards.
func (s *Session) Stage(name string, pairs []mapreduce.Pair) *Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Add(CtrStageDatasets, 1)
	s.counters.Add(CtrStageBytes, mapreduce.PairsBytes(pairs))
	return &Dataset{name: name, src: pairs}
}

// Counters returns a snapshot of the session's dag.* counters, summed
// over all runs.
func (s *Session) Counters() map[string]int64 { return s.Since(Mark{}).Counters }

// Traces returns one trace per completed Run ("dag:<graph>"), each with a
// span per node and that run's dag.* counter deltas.
func (s *Session) Traces() []obs.JobTrace { return s.Since(Mark{}).Runs }

// Jobs returns the stats of every job the session executed (failed jobs
// excluded), in the order they ran.
func (s *Session) Jobs() []mapreduce.JobStats { return s.Since(Mark{}).Jobs }

// Mark is a position in a session's ledger. A pipeline takes one before it
// touches the session — before Stage, whose bytes belong to the pipeline —
// and reads back its own share with Since, so pipelines sharing a session
// never see each other's jobs. The zero Mark is the session's start.
type Mark struct {
	jobs, runs int
	counters   map[string]int64
}

// Mark returns the ledger's current position.
func (s *Session) Mark() Mark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Mark{jobs: len(s.jobs), runs: len(s.traces), counters: s.counters.Snapshot()}
}

// Ledger is what a session recorded over a stretch of its life.
type Ledger struct {
	// Jobs and JobTraces describe every job executed, index-aligned, in
	// the order they ran.
	Jobs      []mapreduce.JobStats
	JobTraces []obs.JobTrace
	// Runs holds one "dag:<graph>" trace per completed Run.
	Runs []obs.JobTrace
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
		Runs:      append([]obs.JobTrace(nil), s.traces[m.runs:]...),
		Counters:  make(map[string]int64),
	}
	for k, v := range s.counters.Snapshot() {
		if d := v - m.counters[k]; d != 0 {
			l.Counters[k] = d
		}
	}
	return l
}

// Run executes the graph's nodes one at a time, in declaration order — a
// topological order, since a node can only read datasets declared before
// it — on the calling goroutine, and returns the wanted datasets' pairs, in
// want order. An intermediate not listed in want is garbage-collected right
// after its last reader runs; wanted datasets are pinned. ctx is checked
// before every node: once it is cancelled, Run starts no further node and
// returns ctx.Err(). Treat the returned slices as read-only, like any job
// output.
func (s *Session) Run(ctx context.Context, g *Graph, want ...*Dataset) ([][]mapreduce.Pair, error) {
	if g == nil {
		return nil, fmt.Errorf("dag: nil graph")
	}
	if g.err != nil {
		return nil, g.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	wanted := make(map[*Dataset]bool, len(want))
	for _, w := range want {
		if w == nil {
			return nil, fmt.Errorf("dag: graph %q: nil wanted dataset", g.name)
		}
		if w.producer != nil && w.producer.g != g {
			return nil, fmt.Errorf("dag: graph %q: wanted dataset %q belongs to graph %q", g.name, w.name, w.producer.g.name)
		}
		wanted[w] = true
	}
	// lastRead maps each unwanted intermediate to the node that reads it
	// last; it is dead once that node has run.
	lastRead := make(map[*Dataset]int)
	for i, n := range g.nodes {
		for _, in := range n.ins {
			if in.producer != nil && !wanted[in] {
				lastRead[in] = i
			}
		}
	}

	runStart := time.Now()
	rc := mapreduce.NewCounters() // this run's dag.* deltas
	outs := make(map[*Dataset][]mapreduce.Pair, len(g.nodes))
	spans := make([]obs.Span, 0, len(g.nodes))
	var err error
	for i, n := range g.nodes {
		if err = ctx.Err(); err != nil {
			break
		}
		inputs := make([][]mapreduce.Pair, len(n.ins))
		for j, in := range n.ins {
			inputs[j] = in.src
			if in.producer != nil {
				inputs[j] = outs[in]
			}
		}
		var out []mapreduce.Pair
		var span obs.Span
		if out, span, err = s.execNode(ctx, n, inputs, rc); err != nil {
			break
		}
		outs[n.out] = out
		spans = append(spans, span)
		for _, in := range n.ins {
			if last, ok := lastRead[in]; ok && last == i {
				delete(lastRead, in) // a node may read one dataset twice
				rc.Add(CtrGCDatasets, 1)
				rc.Add(CtrGCBytes, mapreduce.PairsBytes(outs[in]))
				delete(outs, in)
			}
		}
	}

	s.mu.Lock()
	s.counters.Merge(rc)
	if err == nil {
		trace := obs.JobTrace{
			Job:      "dag:" + g.name,
			ID:       len(s.traces) + 1,
			Wall:     time.Since(runStart),
			Spans:    spans,
			Counters: rc.Snapshot(),
		}
		for i := range trace.Spans {
			trace.Spans[i].JobID = trace.ID
		}
		s.traces = append(s.traces, trace)
		if s.opt.Trace != nil {
			s.opt.Trace.Add(trace)
		}
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}

	res := make([][]mapreduce.Pair, len(want))
	for i, w := range want {
		res[i] = w.src
		if w.producer != nil {
			res[i] = outs[w]
		}
	}
	return res, nil
}

// execNode runs one node's job or transform and logs it. The returned span
// carries the node's output volume.
func (s *Session) execNode(ctx context.Context, n *node, inputs [][]mapreduce.Pair, rc *mapreduce.Counters) ([]mapreduce.Pair, obs.Span, error) {
	start := time.Now()
	var out []mapreduce.Pair
	var jobCounters map[string]int64 // set for job nodes
	if n.job != nil {
		input := inputs[0]
		if len(inputs) > 1 {
			input = nil
			for _, in := range inputs {
				input = append(input, in...)
			}
		}
		res, err := s.engine.Run(ctx, n.job, input)
		if err != nil {
			return nil, obs.Span{}, fmt.Errorf("dag: job %q: %w", n.job.Name, err)
		}
		out = res.Output
		rc.Add(CtrNodes, 1)
		jobCounters = s.record(n.job.Name, res)
	} else {
		var err error
		if out, err = n.fn(inputs...); err != nil {
			return nil, obs.Span{}, fmt.Errorf("dag: transform %q: %w", n.name, err)
		}
		rc.Add(CtrTransforms, 1)
	}
	span := obs.Span{
		Job:     n.name,
		Phase:   obs.PhaseDag,
		Task:    n.idx,
		Start:   start,
		Wall:    time.Since(start),
		Records: int64(len(out)),
		Bytes:   mapreduce.PairsBytes(out),
	}
	if s.opt.Log != nil {
		tag := ""
		if jobCounters != nil {
			tag = fmt.Sprintf(" shuffleB=%d dist=%d", jobCounters[mapreduce.CtrShuffleBytes], jobCounters[mapreduce.CtrDistanceComputations])
		}
		s.opt.Log("dag %-24s %8.3fs  out=%d%s", n.name, span.Wall.Seconds(), span.Records, tag)
	}
	return out, span, nil
}

// record enters one successfully executed job in the ledger — failed jobs
// leave no entry — and forwards its trace to Options.Trace. Engines that
// number their own jobs (the rpcmr master) keep their IDs; for the rest the
// job's ledger position is its ID, stamped on its spans too so JSONL span
// lines attribute to the same id as their job line.
func (s *Session) record(name string, res *mapreduce.Result) map[string]int64 {
	snap := res.Counters.Snapshot()
	trace := obs.JobTrace{Job: name, Wall: res.Wall, Counters: snap}
	if res.Trace != nil {
		trace = *res.Trace
	}
	s.mu.Lock()
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
