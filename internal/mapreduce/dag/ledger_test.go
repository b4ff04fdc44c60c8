package dag_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/obs"
)

func sumReduce(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	out.Emit(key, []byte(strconv.Itoa(total)))
	return nil
}

func wordcount() *mapreduce.Job {
	return &mapreduce.Job{
		Name: "wordcount",
		Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				out.Emit(w, []byte("1"))
			}
			return nil
		},
		Combine: sumReduce,
		Reduce:  sumReduce,
	}
}

// doubler re-emits every record twice and sums per key.
func doubler(name string) *mapreduce.Job {
	return &mapreduce.Job{
		Name: name,
		Map: func(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			out.Emit(key, value)
			out.Emit(key, value)
			return nil
		},
		Reduce: sumReduce,
	}
}

// Three chained jobs on one session: the ledger holds their stats in
// execution order, totals are the sum of the per-job entries, every job
// trace satisfies the shuffle-span invariant, and the -v log and the
// Options.Trace stream see each job exactly once.
func TestSessionPipelines(t *testing.T) {
	var trace obs.Trace
	var logged []string
	s := dag.NewSession(&mapreduce.LocalEngine{Parallelism: 2}, dag.Options{
		Trace: &trace,
		Log:   func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	g := dag.NewGraph("chain")
	src := g.Source("in", []mapreduce.Pair{{Value: []byte("a a b")}})
	counts := g.Job(wordcount(), src)
	twice := g.Job(doubler("double"), counts)
	kept := g.Transform("keep", func(in ...[]mapreduce.Pair) ([]mapreduce.Pair, error) { return in[0], nil }, twice)
	four := g.Job(doubler("double-again"), kept)
	outs, err := s.Run(context.Background(), g, four)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range outs[0] {
		got[p.Key] = string(p.Value)
	}
	if got["a"] != "8" {
		t.Fatalf("pipelined count = %q", got["a"])
	}

	l := s.Since(dag.Mark{})
	var names []string
	var wall, mapIn int64
	for _, j := range l.Jobs {
		names = append(names, j.Name)
		wall += int64(j.Wall)
		mapIn += j.Counters[mapreduce.CtrMapInputRecords]
	}
	if fmt.Sprint(names) != "[wordcount double double-again]" {
		t.Fatalf("ledger jobs = %v", names)
	}
	if wall <= 0 {
		t.Fatal("no wall time recorded")
	}
	// 1 line, then 2 distinct words into each doubler.
	if mapIn != 5 {
		t.Fatalf("total map input = %d", mapIn)
	}
	if len(l.JobTraces) != 3 || len(l.Runs) != 1 {
		t.Fatalf("ledger has %d job traces and %d run traces", len(l.JobTraces), len(l.Runs))
	}
	for i, tr := range l.JobTraces {
		if tr.Job != l.Jobs[i].Name || tr.ID != i+1 {
			t.Fatalf("trace %d is %q #%d, want %q #%d", i, tr.Job, tr.ID, l.Jobs[i].Name, i+1)
		}
		if len(tr.Spans) == 0 {
			t.Fatalf("job %q trace has no spans", tr.Job)
		}
		var shuffleBytes int64
		for _, sp := range tr.Spans {
			// The local engine leaves span job IDs 0; the ledger stamps them.
			if sp.JobID != tr.ID {
				t.Fatalf("job %q: span job id %d, want %d", tr.Job, sp.JobID, tr.ID)
			}
			if sp.Phase == obs.PhaseShuffle {
				shuffleBytes += sp.Bytes
			}
		}
		if shuffleBytes != tr.Counters[mapreduce.CtrShuffleBytes] {
			t.Fatalf("job %q: shuffle span bytes %d != counter %d",
				tr.Job, shuffleBytes, tr.Counters[mapreduce.CtrShuffleBytes])
		}
	}

	// Options.Trace: each job as it completes, then the run's node trace.
	var streamed []string
	for _, tr := range trace.Jobs() {
		streamed = append(streamed, tr.Job)
	}
	if fmt.Sprint(streamed) != "[wordcount double double-again dag:chain]" {
		t.Fatalf("Options.Trace received %v", streamed)
	}
	// One log line per node; job nodes carry their cost counters.
	if len(logged) != 4 {
		t.Fatalf("logged %d lines for 4 nodes: %q", len(logged), logged)
	}
	for i, line := range logged {
		if isJob := i != 2; strings.Contains(line, "shuffleB=") != isJob {
			t.Fatalf("log line %d = %q", i, line)
		}
	}
}

// A failing job is named in the error and leaves nothing in the ledger.
func TestSessionPropagatesError(t *testing.T) {
	var trace obs.Trace
	s := dag.NewSession(&mapreduce.LocalEngine{}, dag.Options{Trace: &trace})
	g := dag.NewGraph("fails")
	ok := g.Job(wordcount(), g.Source("in", []mapreduce.Pair{{Value: []byte("7")}}))
	// bad's map emits a value its reducer cannot parse.
	bad := g.Job(&mapreduce.Job{
		Name: "bad",
		Map: func(_ *mapreduce.TaskContext, key string, _ []byte, out mapreduce.Emitter) error {
			out.Emit(key, []byte("x"))
			return nil
		},
		Reduce: sumReduce,
	}, ok)
	_, err := s.Run(context.Background(), g, bad)
	if err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("want named job error, got %v", err)
	}
	l := s.Since(dag.Mark{})
	if len(l.Jobs) != 1 || l.Jobs[0].Name != "wordcount" || len(l.JobTraces) != 1 {
		t.Fatalf("ledger after a failed job: %+v", l.Jobs)
	}
	if len(l.Runs) != 0 {
		t.Fatalf("failed run left %d run traces", len(l.Runs))
	}
	if got := len(trace.Jobs()); got != 1 {
		t.Fatalf("Options.Trace received %d traces, want the one successful job", got)
	}
}

// Since(mark) is one pipeline's share of a shared session: jobs, traces
// and counter deltas recorded after the mark, nothing from before it.
func TestMarkSeparatesPipelines(t *testing.T) {
	s := dag.NewSession(&mapreduce.LocalEngine{Parallelism: 2}, dag.Options{})
	run := func(name string) {
		in := s.Stage("in-"+name, []mapreduce.Pair{{Value: []byte(name)}})
		g := dag.NewGraph(name)
		if _, err := s.Run(context.Background(), g, g.Job(doubler("job-"+name), g.Job(wordcount(), in))); err != nil {
			t.Fatal(err)
		}
	}
	run("first")
	mark := s.Mark()
	run("second")
	l := s.Since(mark)
	if len(l.Jobs) != 2 || l.Jobs[1].Name != "job-second" || len(l.JobTraces) != 2 {
		t.Fatalf("second pipeline's jobs = %+v", l.Jobs)
	}
	if len(l.Runs) != 1 || l.Runs[0].Job != "dag:second" {
		t.Fatalf("second pipeline's runs = %+v", l.Runs)
	}
	if l.Counters[dag.CtrNodes] != 2 || l.Counters[dag.CtrStageDatasets] != 1 || l.Counters[dag.CtrStageBytes] != int64(len("second")) {
		t.Fatalf("second pipeline's dag counters = %v", l.Counters)
	}
	if all := s.Since(dag.Mark{}); len(all.Jobs) != 4 || all.Counters[dag.CtrNodes] != 4 {
		t.Fatalf("whole ledger: %d jobs, counters %v", len(all.Jobs), all.Counters)
	}
}
