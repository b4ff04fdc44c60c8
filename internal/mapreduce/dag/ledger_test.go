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
	ctx := context.Background()
	counts, err := s.Run(ctx, wordcount(), s.Stage([]mapreduce.Pair{{Value: []byte("a a b")}}))
	if err != nil {
		t.Fatal(err)
	}
	twice, err := s.Run(ctx, doubler("double"), counts)
	if err != nil {
		t.Fatal(err)
	}
	four, err := s.Run(ctx, doubler("double-again"), twice)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range four {
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
	if len(l.JobTraces) != 3 {
		t.Fatalf("ledger has %d job traces", len(l.JobTraces))
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

	// Options.Trace: each job as it completes.
	var streamed []string
	for _, tr := range trace.Jobs() {
		streamed = append(streamed, tr.Job)
	}
	if fmt.Sprint(streamed) != "[wordcount double double-again]" {
		t.Fatalf("Options.Trace received %v", streamed)
	}
	// One log line per job, carrying its cost counters.
	if len(logged) != 3 {
		t.Fatalf("logged %d lines for 3 jobs: %q", len(logged), logged)
	}
	for i, line := range logged {
		if !strings.Contains(line, names[i]) || !strings.Contains(line, "shuffleB=") {
			t.Fatalf("log line %d = %q", i, line)
		}
	}
}

// A failing job is named in the error and leaves nothing in the ledger.
func TestSessionPropagatesError(t *testing.T) {
	var trace obs.Trace
	s := dag.NewSession(&mapreduce.LocalEngine{}, dag.Options{Trace: &trace})
	ctx := context.Background()
	ok, err := s.Run(ctx, wordcount(), s.Stage([]mapreduce.Pair{{Value: []byte("7")}}))
	if err != nil {
		t.Fatal(err)
	}
	// bad's map emits a value its reducer cannot parse.
	bad := &mapreduce.Job{
		Name: "bad",
		Map: func(_ *mapreduce.TaskContext, key string, _ []byte, out mapreduce.Emitter) error {
			out.Emit(key, []byte("x"))
			return nil
		},
		Reduce: sumReduce,
	}
	if _, err := s.Run(ctx, bad, ok); err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("want named job error, got %v", err)
	}
	l := s.Since(dag.Mark{})
	if len(l.Jobs) != 1 || l.Jobs[0].Name != "wordcount" || len(l.JobTraces) != 1 {
		t.Fatalf("ledger after a failed job: %+v", l.Jobs)
	}
	if l.Counters[dag.CtrNodes] != 1 {
		t.Fatalf("dag.nodes = %d after one good and one failed job", l.Counters[dag.CtrNodes])
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
		ctx := context.Background()
		counts, err := s.Run(ctx, wordcount(), s.Stage([]mapreduce.Pair{{Value: []byte(name)}}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(ctx, doubler("job-"+name), counts); err != nil {
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
	if l.Counters[dag.CtrNodes] != 2 || l.Counters[dag.CtrStageDatasets] != 1 || l.Counters[dag.CtrStageBytes] != int64(len("second")) {
		t.Fatalf("second pipeline's dag counters = %v", l.Counters)
	}
	if all := s.Since(dag.Mark{}); len(all.Jobs) != 4 || all.Counters[dag.CtrNodes] != 4 {
		t.Fatalf("whole ledger: %d jobs, counters %v", len(all.Jobs), all.Counters)
	}
}
