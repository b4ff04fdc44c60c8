package dag_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
)

// upperJob maps values to upper case; name parameterizes code identity.
func upperJob(name string) *mapreduce.Job {
	return &mapreduce.Job{
		Name: name,
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

// slowJob sleeps per record so node timing is observable.
func slowJob(name string, d time.Duration) *mapreduce.Job {
	return &mapreduce.Job{
		Name:    name,
		NumMaps: 1,
		Map: func(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			time.Sleep(d)
			out.Emit(key, value)
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
	r1, err := eng.Run(context.Background(), upperJob("up1").WithReduces(3), input)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(context.Background(), upperJob("up2").WithReduces(3), r1.Output)
	if err != nil {
		t.Fatal(err)
	}

	// Same pipeline through the DAG.
	s := newSession()
	g := dag.NewGraph("chain")
	src := s.Stage("in", input)
	mid := g.Job(upperJob("up1").WithReduces(3), src)
	final := g.Job(upperJob("up2").WithReduces(3), mid)
	outs, err := s.Run(context.Background(), g, final)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("want 1 output, got %d", len(outs))
	}
	if fmt.Sprint(outs[0]) != fmt.Sprint(r2.Output) {
		t.Fatalf("dag output %v != hand-sequenced %v", outs[0], r2.Output)
	}
	snap := s.Counters()
	if snap[dag.CtrNodes] != 2 {
		t.Fatalf("dag.nodes = %d, want 2", snap[dag.CtrNodes])
	}
}

func TestTransformAndMultiInputConcat(t *testing.T) {
	s := newSession()
	g := dag.NewGraph("multi")
	a := s.Stage("a", pairsOf("1", "left"))
	b := s.Stage("b", pairsOf("2", "right"))
	tagged := g.Transform("tag", func(inputs ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
		if len(inputs) != 2 {
			return nil, fmt.Errorf("want 2 inputs, got %d", len(inputs))
		}
		var out []mapreduce.Pair
		for _, in := range inputs {
			for _, p := range in {
				out = append(out, mapreduce.Pair{Key: p.Key, Value: append([]byte("t:"), p.Value...)})
			}
		}
		return out, nil
	}, a, b)
	// A job with two inputs sees them concatenated in declaration order.
	both := g.Job(upperJob("cat").WithReduces(1), tagged, a)
	outs, err := s.Run(context.Background(), g, both, tagged)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(outs[1][0].Value); got != "t:left" {
		t.Fatalf("transform output = %q, want %q", got, "t:left")
	}
	// cat consumed tag-output (2 records) + a (1 record), uppercased.
	if len(outs[0]) != 3 {
		t.Fatalf("concat job saw %d records, want 3", len(outs[0]))
	}
	snap := s.Counters()
	if snap[dag.CtrTransforms] != 1 {
		t.Fatalf("dag.transforms = %d, want 1", snap[dag.CtrTransforms])
	}
}

// Two independent nodes, the slow one declared first: the session runs them
// one after the other in declaration order and records them in that order,
// although the fast one alone would finish first.
func TestNodesRunInDeclarationOrder(t *testing.T) {
	s := newSession()
	mark := s.Mark()
	g := dag.NewGraph("order")
	src := s.Stage("in", pairsOf("k", "v"))
	slow := g.Job(slowJob("slow", 60*time.Millisecond), src)
	fast := g.Job(upperJob("fast"), src)
	if _, err := s.Run(context.Background(), g, slow, fast); err != nil {
		t.Fatal(err)
	}
	l := s.Since(mark)
	var names []string
	for _, j := range l.Jobs {
		names = append(names, j.Name)
	}
	if fmt.Sprint(names) != "[slow fast]" {
		t.Fatalf("ledger jobs = %v, want declaration order [slow fast]", names)
	}
	if len(l.Runs) != 1 || l.Runs[0].Job != "dag:order" {
		t.Fatalf("run traces = %+v, want one dag:order", l.Runs)
	}
	spans := l.Runs[0].Spans
	if len(spans) != 2 {
		t.Fatalf("want 2 node spans, got %d", len(spans))
	}
	// Each span's [Start, Start+Wall) ends before the next one starts.
	for i := 1; i < len(spans); i++ {
		prev, cur := spans[i-1], spans[i]
		if cur.Start.Before(prev.Start.Add(prev.Wall)) {
			t.Fatalf("node spans overlap: %s %v+%v vs %s %v+%v", prev.Job, prev.Start, prev.Wall, cur.Job, cur.Start, cur.Wall)
		}
	}
}

func TestGCFreesDeadIntermediates(t *testing.T) {
	s := newSession()
	g := dag.NewGraph("gc")
	src := s.Stage("in", pairsOf("a", "1", "b", "2"))
	s1 := g.Job(upperJob("g1").WithReduces(1), src)
	s2 := g.Job(upperJob("g2").WithReduces(1), s1)
	s3 := g.Job(upperJob("g3").WithReduces(1), s2)
	if _, err := s.Run(context.Background(), g, s3); err != nil {
		t.Fatal(err)
	}
	snap := s.Counters()
	// s1.out and s2.out die once consumed; s3.out is wanted and pinned.
	if snap[dag.CtrGCDatasets] != 2 {
		t.Fatalf("dag.gc.datasets = %d, want 2", snap[dag.CtrGCDatasets])
	}
	if snap[dag.CtrGCBytes] == 0 {
		t.Fatal("dag.gc.bytes is 0")
	}
}

func TestCancellationStopsScheduling(t *testing.T) {
	s := newSession()
	g := dag.NewGraph("cancel")
	src := s.Stage("in", pairsOf("k", "v"))
	a := g.Job(slowJob("c1", 80*time.Millisecond), src)
	b := g.Job(slowJob("c2", 80*time.Millisecond), a)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := s.Run(ctx, g, b)
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error %q does not mention cancellation", err)
	}
}

// Stage counts every call, identical content included: the counters are
// what the pipeline staged, not what it staged that was new.
func TestStageCountsEveryCall(t *testing.T) {
	s := newSession()
	input := pairsOf("a", "1", "b", "2")
	d1 := s.Stage("points", input)
	s.Stage("points", input)
	snap := s.Counters()
	if snap[dag.CtrStageDatasets] != 2 {
		t.Fatalf("dag.stage.datasets = %d, want 2", snap[dag.CtrStageDatasets])
	}
	want := 2 * mapreduce.PairsBytes(input)
	if snap[dag.CtrStageBytes] != want {
		t.Fatalf("dag.stage.bytes = %d, want %d", snap[dag.CtrStageBytes], want)
	}
	// Staged datasets feed graphs like sources.
	g := dag.NewGraph("staged")
	out := g.Job(upperJob("stg").WithReduces(1), d1)
	outs, err := s.Run(context.Background(), g, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs[0]) != 2 {
		t.Fatalf("staged job produced %d records, want 2", len(outs[0]))
	}
}

func TestConstructionErrorsSurfaceAtRun(t *testing.T) {
	s := newSession()
	other := dag.NewGraph("other")
	osrc := s.Stage("o", pairsOf("k", "v"))
	foreign := other.Job(upperJob("f1"), osrc)

	g := dag.NewGraph("bad")
	g.Job(upperJob("b1"), foreign) // foreign node output
	if _, err := s.Run(context.Background(), g); err == nil {
		t.Fatal("cross-graph input not rejected")
	}

	g2 := dag.NewGraph("bad2")
	g2.Job(upperJob("b2")) // no inputs
	if _, err := s.Run(context.Background(), g2); err == nil {
		t.Fatal("input-less job not rejected")
	}
}

func TestJobConfClonedAtRegistration(t *testing.T) {
	s := newSession()
	conf := mapreduce.Conf{"v": "first"}
	g := dag.NewGraph("conf")
	src := s.Stage("in", pairsOf("k", "v"))
	echo := func(name string) *mapreduce.Job {
		return &mapreduce.Job{
			Name: name,
			Conf: conf,
			Map: func(ctx *mapreduce.TaskContext, key string, _ []byte, out mapreduce.Emitter) error {
				out.Emit(key, []byte(ctx.Conf["v"]))
				return nil
			},
		}
	}
	first := g.Job(echo("e1"), src)
	conf["v"] = "second" // mutating the shared conf must not affect e1
	second := g.Job(echo("e2"), src)
	outs, err := s.Run(context.Background(), g, first, second)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(outs[0][0].Value); got != "first" {
		t.Fatalf("e1 saw conf %q, want %q (conf not cloned at registration)", got, "first")
	}
	if got := string(outs[1][0].Value); got != "second" {
		t.Fatalf("e2 saw conf %q, want %q", got, "second")
	}
}
