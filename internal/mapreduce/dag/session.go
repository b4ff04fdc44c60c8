package dag

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Counter names the scheduler reports (Session.Counters and per-run trace
// counters).
const (
	// CtrNodes counts job nodes actually executed (cache hits excluded).
	CtrNodes = "dag.nodes"
	// CtrTransforms counts transform nodes actually executed.
	CtrTransforms = "dag.transforms"
	// CtrCacheHits / CtrCacheMisses count node-result cache lookups. Both
	// stay zero when the cache is disabled.
	CtrCacheHits   = "dag.cache.hits"
	CtrCacheMisses = "dag.cache.misses"
	// CtrCacheEvictions counts entries pushed out of the cache and dropped;
	// an evicted node re-runs the next time it is requested.
	CtrCacheEvictions = "dag.cache.evictions"
	// CtrStageDatasets / CtrStageBytes count distinct datasets registered
	// via Session.Stage and their byte volume. Re-staging identical
	// content adds nothing — the counter IS the staging-dedup regression
	// signal for iterative pipelines.
	CtrStageDatasets = "dag.stage.datasets"
	CtrStageBytes    = "dag.stage.bytes"
	// CtrGCDatasets / CtrGCBytes count intermediate datasets freed once
	// their last consumer finished, and the bytes released.
	CtrGCDatasets = "dag.gc.datasets"
	CtrGCBytes    = "dag.gc.bytes"
)

// Options tunes a Session.
type Options struct {
	// Workers bounds how many ready nodes run concurrently. 0 uses the
	// engine's declared job concurrency (mapreduce.JobConcurrency, 1 when
	// undeclared); values above that capability are clamped down to it.
	Workers int
	// CacheBytes bounds the node-result cache; 0 disables caching (every
	// node re-executes on every run).
	CacheBytes int64
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
// per Run, the dag.* counters, plus the node cache and staged datasets it
// carries across Run calls. Safe for sequential use; one Run executes at a
// time.
type Session struct {
	engine mapreduce.Engine
	opt    Options
	cache  *cache

	mu       sync.Mutex
	counters *mapreduce.Counters
	staged   map[string]*Dataset
	jobs     []mapreduce.JobStats // executed job nodes, completion order
	jobTrace []obs.JobTrace       // their traces, same order
	traces   []obs.JobTrace       // one "dag:<graph>" trace per completed Run
}

// NewSession binds a session to an engine: the in-process LocalEngine, an
// rpcmr.Master, or anything else with a Run method.
func NewSession(e mapreduce.Engine, opt Options) *Session {
	return &Session{
		engine:   e,
		opt:      opt,
		cache:    newCache(opt.CacheBytes),
		counters: mapreduce.NewCounters(),
		staged:   make(map[string]*Dataset),
	}
}

// Stage registers a named dataset at session level, shared across graphs
// and runs. Identical content (same name, same pairs) returns the same
// handle and counts its bytes ONCE — the contract iterative pipelines rely
// on to stop re-staging their input every round. The slice must not be
// mutated afterwards.
func (s *Session) Stage(name string, pairs []mapreduce.Pair) *Dataset {
	fp := fingerprintPairs(name, pairs)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ds, ok := s.staged[fp]; ok {
		return ds
	}
	ds := &Dataset{name: name, src: pairs, staged: true, fp: fp}
	s.staged[fp] = ds
	s.counters.Add(CtrStageDatasets, 1)
	s.counters.Add(CtrStageBytes, mapreduce.PairsBytes(pairs))
	return ds
}

// Counters returns a snapshot of the session's dag.* counters, summed
// over all runs.
func (s *Session) Counters() map[string]int64 { return s.Since(Mark{}).Counters }

// Traces returns one trace per completed Run ("dag:<graph>"), each with a
// span per node and that run's dag.* counter deltas.
func (s *Session) Traces() []obs.JobTrace { return s.Since(Mark{}).Runs }

// Jobs returns the stats of every job the session executed (cache-served
// nodes and failed jobs excluded), in completion order.
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
	// completion order.
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

// workers resolves the node concurrency: Options.Workers clamped to the
// engine's declared capability.
func (s *Session) workers() int {
	capability := 1
	if jc, ok := s.engine.(mapreduce.JobConcurrency); ok {
		if n := jc.MaxConcurrentJobs(); n > 0 {
			capability = n
		}
	}
	w := s.opt.Workers
	if w <= 0 || w > capability {
		w = capability
	}
	return w
}

// dsState is one dataset's materialization state during a run.
type dsState struct {
	pairs  []mapreduce.Pair
	done   bool
	refs   int  // consumer nodes not yet finished
	gcable bool // node-produced and not a wanted output
}

// Run executes the graph and returns the wanted datasets' pairs, in want
// order. Intermediates not listed in want are garbage-collected as soon as
// their last consumer finishes; wanted datasets are pinned. Cancelling ctx
// stops dispatching nodes, drains the ones in flight, and returns
// ctx.Err(). Returned slices may alias the node cache — treat them as
// read-only, like any job output.
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
	runStart := time.Now()
	rc := mapreduce.NewCounters() // this run's dag.* deltas

	// Build per-dataset state and the consumer index.
	st := make(map[*Dataset]*dsState)
	consumers := make(map[*Dataset][]*node)
	ensure := func(d *Dataset) *dsState {
		x, ok := st[d]
		if !ok {
			x = &dsState{}
			if d.producer == nil {
				x.pairs = d.src
				x.done = true
			}
			st[d] = x
		}
		return x
	}
	for _, n := range g.nodes {
		for _, in := range distinct(n.ins) {
			ensure(in).refs++
			consumers[in] = append(consumers[in], n)
		}
		ensure(n.out).gcable = true
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
		ensure(w).gcable = false
	}

	// Fingerprint nodes in construction (= topological) order.
	for _, n := range g.nodes {
		inFPs := make([]string, len(n.ins))
		for i, in := range n.ins {
			if in.producer != nil {
				inFPs[i] = in.producer.fp
			} else {
				inFPs[i] = datasetFP(in)
			}
		}
		n.fp = fingerprintNode(n, inFPs)
		n.out.fp = n.fp
	}

	// Schedule: dispatch ready nodes up to the worker bound, collect
	// completions, release consumers, GC dead intermediates.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	doneCh := make(chan nodeResult)
	pending := make(map[*node]int)
	var ready []*node
	for _, n := range g.nodes {
		for _, in := range distinct(n.ins) {
			if !st[in].done {
				pending[n]++
			}
		}
		if pending[n] == 0 {
			ready = append(ready, n)
		}
	}
	workers := s.workers()
	spans := make([]obs.Span, 0, len(g.nodes))
	var (
		running, finished int
		firstErr          error
	)
	for finished < len(g.nodes) {
		for firstErr == nil && running < workers && len(ready) > 0 {
			n := ready[0]
			ready = ready[1:]
			inputs := make([][]mapreduce.Pair, len(n.ins))
			for i, in := range n.ins {
				inputs[i] = st[in].pairs
			}
			running++
			go func(n *node, inputs [][]mapreduce.Pair) {
				doneCh <- s.execNode(runCtx, n, inputs, rc)
			}(n, inputs)
		}
		if running == 0 {
			if firstErr != nil {
				break
			}
			// No cycle can be constructed, so an empty frontier with work
			// left means a bug; fail loudly instead of hanging.
			return nil, fmt.Errorf("dag: graph %q: scheduler stuck with %d/%d nodes done", g.name, finished, len(g.nodes))
		}
		msg := <-doneCh
		running--
		finished++
		if msg.err != nil {
			if firstErr == nil {
				firstErr = msg.err
				cancelRun()
			}
			continue
		}
		spans = append(spans, msg.span)
		outSt := st[msg.n.out]
		outSt.pairs = msg.out
		outSt.done = true
		for _, m := range consumers[msg.n.out] {
			pending[m]--
			if pending[m] == 0 {
				ready = append(ready, m)
			}
		}
		if s.opt.Log != nil {
			tag := ""
			if msg.cached {
				tag = "  [cached]"
			} else if c := msg.jobCounters; c != nil {
				tag = fmt.Sprintf(" shuffleB=%d dist=%d", c[mapreduce.CtrShuffleBytes], c[mapreduce.CtrDistanceComputations])
			}
			s.opt.Log("dag %-24s %8.3fs  out=%d%s", msg.n.name, msg.span.Wall.Seconds(), msg.span.Records, tag)
		}
		// Release this node's inputs; collect intermediates nobody else
		// will read.
		for _, in := range distinct(msg.n.ins) {
			is := st[in]
			is.refs--
			if is.refs == 0 && is.gcable && is.done {
				rc.Add(CtrGCDatasets, 1)
				rc.Add(CtrGCBytes, mapreduce.PairsBytes(is.pairs))
				is.pairs = nil
			}
		}
	}

	s.mu.Lock()
	s.counters.Merge(rc)
	if firstErr == nil {
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
	if firstErr != nil {
		return nil, firstErr
	}

	out := make([][]mapreduce.Pair, len(want))
	for i, w := range want {
		ws, ok := st[w]
		if !ok {
			// A wanted source no node consumed.
			out[i] = w.src
			continue
		}
		if !ws.done {
			return nil, fmt.Errorf("dag: graph %q: wanted dataset %q was never produced", g.name, w.name)
		}
		out[i] = ws.pairs
	}
	return out, nil
}

// nodeResult is one node's completion message to the scheduler loop.
type nodeResult struct {
	n           *node
	out         []mapreduce.Pair
	span        obs.Span
	err         error
	cached      bool
	jobCounters map[string]int64 // set for executed job nodes
}

// execNode runs one node: cache lookup, then the job or transform, then
// cache fill. The returned span carries the node's output volume;
// cache-served nodes are labeled "<name> (cached)".
func (s *Session) execNode(ctx context.Context, n *node, inputs [][]mapreduce.Pair, rc *mapreduce.Counters) (msg nodeResult) {
	start := time.Now()
	msg.n = n
	if s.cache != nil {
		if out, ok := s.cache.get(n.fp); ok {
			rc.Add(CtrCacheHits, 1)
			msg.out = out
			msg.cached = true
			msg.span = nodeSpan(n.name+" (cached)", n.idx, start, out)
			return msg
		}
		rc.Add(CtrCacheMisses, 1)
	}
	var out []mapreduce.Pair
	var err error
	if n.job != nil {
		input := inputs[0]
		if len(inputs) > 1 {
			input = nil
			for _, in := range inputs {
				input = append(input, in...)
			}
		}
		var res *mapreduce.Result
		res, err = s.engine.Run(ctx, n.job, input)
		if err != nil {
			err = fmt.Errorf("dag: job %q: %w", n.job.Name, err)
		} else {
			out = res.Output
			rc.Add(CtrNodes, 1)
			msg.jobCounters = s.record(n.job.Name, res)
		}
	} else {
		out, err = n.fn(inputs...)
		if err != nil {
			err = fmt.Errorf("dag: transform %q: %w", n.name, err)
		} else {
			rc.Add(CtrTransforms, 1)
		}
	}
	if err != nil {
		msg.err = err
		return msg
	}
	if s.cache != nil {
		rc.Add(CtrCacheEvictions, s.cache.put(n.fp, out))
	}
	msg.out = out
	msg.span = nodeSpan(n.name, n.idx, start, out)
	return msg
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

func nodeSpan(name string, idx int, start time.Time, out []mapreduce.Pair) obs.Span {
	return obs.Span{
		Job:     name,
		Phase:   obs.PhaseDag,
		Task:    idx,
		Start:   start,
		Wall:    time.Since(start),
		Records: int64(len(out)),
		Bytes:   mapreduce.PairsBytes(out),
	}
}

// distinct returns the input list with duplicates removed, preserving
// order — refcounts and pending counts are per distinct dataset.
func distinct(ds []*Dataset) []*Dataset {
	if len(ds) <= 1 {
		return ds
	}
	out := ds[:0:0]
	seen := make(map[*Dataset]bool, len(ds))
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}
