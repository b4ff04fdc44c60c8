// Package dag is the job-DAG scheduler the pipeline packages program
// against: instead of hand-sequencing Engine.Run calls, a pipeline declares
// a Graph of nodes — MapReduce jobs and driver-side transforms — wired
// through named Datasets, and a Session executes the graph over any
// mapreduce.Engine and keeps the one ledger of what ran.
//
// The scheduler:
//
//   - orders nodes topologically (construction order is already
//     topological, since a node's inputs must exist when it is declared)
//     and runs independent ready nodes concurrently, bounded by the
//     engine's declared job concurrency (mapreduce.JobConcurrency: the
//     local engine overlaps jobs freely, the rpcmr master serializes);
//
//   - content-fingerprints every node — sha256 over the job name, conf,
//     task geometry, and input dataset fingerprints — and serves repeated
//     nodes from a byte-bounded result cache, so an unchanged sub-graph
//     re-runs for free across Session.Run calls (Hadoop users know this as
//     "don't recompute the intermediates that didn't change");
//
//   - garbage-collects intermediate datasets as soon as their last
//     consumer finishes, so a deep pipeline's peak footprint is its live
//     frontier, not its whole history;
//
//   - records every job it executes — stats and trace, successful jobs
//     only, in completion order — and emits dag.* counters (nodes run,
//     cache hits/misses, staged and collected bytes) and one obs span per
//     node; a pipeline brackets its work with Session.Mark / Since to read
//     back exactly its own share, also on a session it shares with others.
//
// Datasets are backed by in-memory pair slices (sources and node outputs)
// or by session-level staged slices shared across graphs (Session.Stage —
// the fix for pipelines re-staging their input every iteration). The node
// cache is in-memory only: an evicted entry is dropped and its node re-runs.
//
// Fingerprinting identifies job code by job NAME, exactly like the rpcmr
// job registry: two jobs with the same name, conf, geometry, and inputs
// are assumed to compute the same function.
package dag

import (
	"fmt"

	"repro/internal/mapreduce"
)

// TransformFunc is a driver-side node: a pure function of its input
// datasets (in declaration order) producing one output dataset. It runs on
// the driver, not as a MapReduce job — the place for cheap re-encodings
// between jobs (decode ρ, re-annotate points). It must be deterministic:
// its node is fingerprinted by the transform NAME plus input fingerprints,
// and a cached result substitutes for a call.
type TransformFunc func(inputs ...[]mapreduce.Pair) ([]mapreduce.Pair, error)

// Dataset is a handle on one named dataset: a graph source, a session
// staged slice, or the output of a graph node. Handles are wired into
// downstream nodes and passed to Session.Run as wanted outputs.
// The pair slice behind a source or staged dataset must not be mutated
// after registration — fingerprints are computed from it once.
type Dataset struct {
	name     string
	src      []mapreduce.Pair // source / staged content (nil for node outputs)
	producer *node            // non-nil for node outputs
	staged   bool             // registered via Session.Stage
	fp       string           // memoized fingerprint
}

// Name returns the dataset's declared name.
func (d *Dataset) Name() string { return d.name }

// node is one unit of work: exactly one of job / fn is set.
type node struct {
	g    *Graph
	idx  int
	name string
	job  *mapreduce.Job
	fn   TransformFunc
	ins  []*Dataset
	out  *Dataset
	fp   string // memoized fingerprint
}

// Graph is a DAG of jobs and transforms under construction. Methods record
// the first construction error instead of returning it at every call;
// Session.Run surfaces it. Construction order is topological by
// construction: a node can only consume datasets that already exist.
type Graph struct {
	name  string
	nodes []*node
	err   error
}

// NewGraph returns an empty graph. The name labels the per-run trace
// ("dag:<name>") and log lines.
func NewGraph(name string) *Graph {
	return &Graph{name: name}
}

// Name returns the graph's label.
func (g *Graph) Name() string { return g.name }

func (g *Graph) fail(format string, args ...any) *Dataset {
	if g.err == nil {
		g.err = fmt.Errorf("dag: graph %q: "+format, append([]any{g.name}, args...)...)
	}
	// Return a placeholder so builder chains stay nil-safe; Run reports
	// the recorded error before ever touching it.
	return &Dataset{name: "<error>"}
}

// Source registers an in-memory source dataset local to this graph. For a
// dataset reused across graphs (or across runs, without re-counting its
// bytes), stage it on the Session instead.
func (g *Graph) Source(name string, pairs []mapreduce.Pair) *Dataset {
	if name == "" {
		return g.fail("source with empty name")
	}
	return &Dataset{name: name, src: pairs}
}

// Job adds a job node consuming the given datasets (multiple inputs are
// concatenated in declaration order, the way hand-sequenced pipelines
// appended output slices) and returns its output dataset. The job's Conf
// is cloned at registration, absorbing the conf.Clone() boilerplate the
// hand-sequenced pipelines carried: callers may keep mutating a shared
// conf map for later nodes.
func (g *Graph) Job(job *mapreduce.Job, inputs ...*Dataset) *Dataset {
	if job == nil {
		return g.fail("nil job")
	}
	if job.Name == "" {
		return g.fail("job with empty name")
	}
	if len(inputs) == 0 {
		return g.fail("job %q has no inputs", job.Name)
	}
	j := *job
	j.Conf = job.Conf.Clone()
	n := &node{g: g, idx: len(g.nodes), name: j.Name, job: &j}
	return g.addNode(n, inputs)
}

// Transform adds a driver-side transform node and returns its output
// dataset. The name must uniquely identify the computation — it is the
// code identity under fingerprinting.
func (g *Graph) Transform(name string, fn TransformFunc, inputs ...*Dataset) *Dataset {
	if name == "" {
		return g.fail("transform with empty name")
	}
	if fn == nil {
		return g.fail("transform %q has nil function", name)
	}
	if len(inputs) == 0 {
		return g.fail("transform %q has no inputs", name)
	}
	n := &node{g: g, idx: len(g.nodes), name: name, fn: fn}
	return g.addNode(n, inputs)
}

func (g *Graph) addNode(n *node, inputs []*Dataset) *Dataset {
	for i, in := range inputs {
		if in == nil {
			return g.fail("node %q input %d is nil", n.name, i)
		}
		if in.producer != nil && in.producer.g != g {
			return g.fail("node %q input %q belongs to graph %q", n.name, in.name, in.producer.g.name)
		}
	}
	n.ins = inputs
	n.out = &Dataset{name: n.name + ".out", producer: n}
	g.nodes = append(g.nodes, n)
	return n.out
}
