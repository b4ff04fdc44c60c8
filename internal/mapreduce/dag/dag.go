// Package dag is the job-DAG scheduler the pipeline packages program
// against: instead of hand-sequencing Engine.Run calls, a pipeline declares
// a Graph of nodes — MapReduce jobs and driver-side transforms — wired
// through named Datasets, and a Session executes the graph over any
// mapreduce.Engine and keeps the one ledger of what ran.
//
// The session:
//
//   - runs a graph's nodes one at a time, in declaration order, on the
//     calling goroutine: that order is topological, since a node's inputs
//     must exist when it is declared, and every pipeline here is a chain of
//     jobs, each reading the one before, so no two nodes are ever ready at
//     once. Cancellation is checked between nodes;
//
//   - garbage-collects an intermediate dataset right after its last reader
//     runs, so a deep pipeline's peak footprint is its live frontier, not
//     its whole history;
//
//   - records every job it executes — stats and trace, successful jobs
//     only, in the order they ran — and emits dag.* counters (nodes run,
//     staged and collected bytes) and one obs span per node; a pipeline
//     brackets its work with Session.Mark / Since to read back exactly its
//     own share, also on a session it shares with others.
//
// Every node runs on every Run: nothing is cached across runs. Graph
// inputs are in-memory pair slices registered with Session.Stage.
package dag

import (
	"fmt"

	"repro/internal/mapreduce"
)

// TransformFunc is a driver-side node: a pure function of its input
// datasets (in declaration order) producing one output dataset. It runs on
// the driver, not as a MapReduce job — the place for cheap re-encodings
// between jobs (decode ρ, re-annotate points).
type TransformFunc func(inputs ...[]mapreduce.Pair) ([]mapreduce.Pair, error)

// Dataset is a handle on one named dataset: a session staged slice or the
// output of a graph node. Handles are wired into downstream nodes and
// passed to Session.Run as wanted outputs.
type Dataset struct {
	name     string
	src      []mapreduce.Pair // staged content (nil for node outputs)
	producer *node            // non-nil for node outputs
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
// dataset. The name labels its span and log line.
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
