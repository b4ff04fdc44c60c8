package dag_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
)

// upperJob maps values to upper case over reduces partitions; name
// parameterizes code identity.
func upperJob(name string, reduces int) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       name,
		NumReduces: reduces,
		Map: func(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			out.Emit(key, []byte(strings.ToUpper(string(value))))
			return nil
		},
		Reduce: func(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			for _, v := range values {
				out.Emit(key, v)
			}
			return nil
		},
	}
}

func pairsOf(kv ...string) []mapreduce.Pair {
	ps := make([]mapreduce.Pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		ps = append(ps, mapreduce.Pair{Key: kv[i], Value: []byte(kv[i+1])})
	}
	return ps
}

func newSession() *dag.Session {
	return dag.NewSession(&mapreduce.LocalEngine{Parallelism: 4}, dag.Options{})
}

func TestChainMatchesHandSequenced(t *testing.T) {
	input := pairsOf("a", "x", "b", "y", "c", "z")

	// Hand-sequenced reference.
	eng := &mapreduce.LocalEngine{Parallelism: 4}
	r1, err := eng.Run(context.Background(), upperJob("up1", 3), input)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(context.Background(), upperJob("up2", 3), r1.Output)
	if err != nil {
		t.Fatal(err)
	}

	// Same chain through the session.
	s := newSession()
	mid, err := s.Run(context.Background(), upperJob("up1", 3), s.Stage(input))
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Run(context.Background(), upperJob("up2", 3), mid)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(final) != fmt.Sprint(r2.Output) {
		t.Fatalf("session output %v != hand-sequenced %v", final, r2.Output)
	}
	snap := s.Counters()
	if snap[dag.CtrNodes] != 2 {
		t.Fatalf("dag.nodes = %d, want 2", snap[dag.CtrNodes])
	}
}

// Several inputs reach the job as one input, concatenated in argument order.
func TestRunConcatenatesInputs(t *testing.T) {
	s := newSession()
	echo := &mapreduce.Job{
		Name:       "echo",
		NumMaps:    1,
		NumReduces: 1,
		Map: func(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			out.Emit(key, value)
			return nil
		},
	}
	out, err := s.Run(context.Background(), echo, pairsOf("1", "a", "2", "b"), nil, pairsOf("3", "c"), pairsOf("4", "d"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(out), fmt.Sprint(pairsOf("1", "a", "2", "b", "3", "c", "4", "d")); got != want {
		t.Fatalf("job saw %s, want %s", got, want)
	}
}

// A cancelled ctx returns ctx.Err(), starts no job and records nothing.
func TestCancellationStopsScheduling(t *testing.T) {
	s := newSession()
	var mapped atomic.Int64
	job := &mapreduce.Job{
		Name: "never",
		Map: func(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			mapped.Add(1)
			out.Emit(key, value)
			return nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.Run(ctx, job, pairsOf("k", "v"))
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("cancelled run returned %v, %v; want nil, %v", out, err, context.Canceled)
	}
	if mapped.Load() != 0 {
		t.Fatalf("cancelled run mapped %d records", mapped.Load())
	}
	if l := s.Since(dag.Mark{}); len(l.Jobs) != 0 || len(l.JobTraces) != 0 || len(l.Counters) != 0 {
		t.Fatalf("cancelled run left a ledger entry: %+v", l)
	}
}

// Stage counts every call, identical content included: the counters are
// what the pipeline staged, not what it staged that was new.
func TestStageCountsEveryCall(t *testing.T) {
	s := newSession()
	input := pairsOf("a", "1", "b", "2")
	staged := s.Stage(input)
	s.Stage(input)
	snap := s.Counters()
	if snap[dag.CtrStageDatasets] != 2 {
		t.Fatalf("dag.stage.datasets = %d, want 2", snap[dag.CtrStageDatasets])
	}
	want := 2 * mapreduce.PairsBytes(input)
	if snap[dag.CtrStageBytes] != want {
		t.Fatalf("dag.stage.bytes = %d, want %d", snap[dag.CtrStageBytes], want)
	}
	// A staged slice is the input itself.
	out, err := s.Run(context.Background(), upperJob("stg", 1), staged)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("staged job produced %d records, want 2", len(out))
	}
}
