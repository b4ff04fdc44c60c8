package dag_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
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

// slowJob sleeps per record so node overlap is observable.
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

func newSession(t *testing.T, opt dag.Options) *dag.Session {
	t.Helper()
	return dag.NewSession(&mapreduce.LocalEngine{Parallelism: 4}, opt)
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
	s := newSession(t, dag.Options{})
	g := dag.NewGraph("chain")
	src := g.Source("in", input)
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
	s := newSession(t, dag.Options{})
	g := dag.NewGraph("multi")
	a := g.Source("a", pairsOf("1", "left"))
	b := g.Source("b", pairsOf("2", "right"))
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

func TestIndependentNodesOverlap(t *testing.T) {
	const d = 120 * time.Millisecond
	s := newSession(t, dag.Options{Workers: 2})
	g := dag.NewGraph("par")
	src := g.Source("in", pairsOf("k", "v"))
	l := g.Job(slowJob("slow-left", d), src)
	r := g.Job(slowJob("slow-right", d), src)
	start := time.Now()
	if _, err := s.Run(context.Background(), g, l, r); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall >= 2*d {
		t.Fatalf("independent nodes did not overlap: wall %v >= %v", wall, 2*d)
	}
	traces := s.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 dag trace, got %d", len(traces))
	}
	spans := traces[0].Spans
	if len(spans) != 2 {
		t.Fatalf("want 2 node spans, got %d", len(spans))
	}
	// The spans' [Start, Start+Wall) intervals must intersect.
	s0, s1 := spans[0], spans[1]
	if !(s0.Start.Before(s1.Start.Add(s1.Wall)) && s1.Start.Before(s0.Start.Add(s0.Wall))) {
		t.Fatalf("node spans do not overlap: %v+%v vs %v+%v", s0.Start, s0.Wall, s1.Start, s1.Wall)
	}
}

func TestSerialEngineDoesNotOverlap(t *testing.T) {
	// Workers is clamped to the engine's declared concurrency (1 here).
	s := dag.NewSession(serialEngine{}, dag.Options{Workers: 8})
	g := dag.NewGraph("serial")
	src := g.Source("in", pairsOf("k", "v"))
	l := g.Job(upperJob("s1"), src)
	r := g.Job(upperJob("s2"), src)
	if _, err := s.Run(context.Background(), g, l, r); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&maxSerialInFlight); got != 1 {
		t.Fatalf("serial engine saw %d concurrent jobs, want 1", got)
	}
}

var serialInFlight, maxSerialInFlight int32

// serialEngine declares MaxConcurrentJobs()==1 and asserts it is honored.
type serialEngine struct{}

func (serialEngine) MaxConcurrentJobs() int { return 1 }

func (serialEngine) Run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) (*mapreduce.Result, error) {
	n := atomic.AddInt32(&serialInFlight, 1)
	if n > atomic.LoadInt32(&maxSerialInFlight) {
		atomic.StoreInt32(&maxSerialInFlight, n)
	}
	time.Sleep(20 * time.Millisecond)
	atomic.AddInt32(&serialInFlight, -1)
	return (&mapreduce.LocalEngine{Parallelism: 1}).Run(ctx, job, input)
}

func TestCacheReuseSkipsExecution(t *testing.T) {
	s := dag.NewSession(&mapreduce.LocalEngine{Parallelism: 2}, dag.Options{CacheBytes: 1 << 20})
	input := pairsOf("a", "x", "b", "y")
	build := func() (*dag.Graph, *dag.Dataset) {
		g := dag.NewGraph("cached")
		src := g.Source("in", input)
		mid := g.Job(upperJob("up1").WithReduces(2), src)
		out := g.Job(upperJob("up2").WithReduces(2), mid)
		return g, out
	}
	g1, want1 := build()
	first, err := s.Run(context.Background(), g1, want1)
	if err != nil {
		t.Fatal(err)
	}
	jobsAfterFirst := len(s.Jobs())
	if jobsAfterFirst != 2 {
		t.Fatalf("first run executed %d jobs, want 2", jobsAfterFirst)
	}

	g2, want2 := build()
	second, err := s.Run(context.Background(), g2, want2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Jobs()) != jobsAfterFirst {
		t.Fatalf("second run executed %d extra jobs, want 0 (cached)", len(s.Jobs())-jobsAfterFirst)
	}
	snap := s.Counters()
	if snap[dag.CtrCacheHits] == 0 {
		t.Fatal("dag.cache.hits is 0 after identical rerun")
	}
	if fmt.Sprint(first[0]) != fmt.Sprint(second[0]) {
		t.Fatal("cached rerun returned different output")
	}

	// Changing the conf invalidates downstream nodes.
	g3 := dag.NewGraph("cached")
	src := g3.Source("in", input)
	j := upperJob("up1").WithReduces(2)
	j.Conf = mapreduce.Conf{"knob": "changed"}
	mid := g3.Job(j, src)
	out := g3.Job(upperJob("up2").WithReduces(2), mid)
	if _, err := s.Run(context.Background(), g3, out); err != nil {
		t.Fatal(err)
	}
	if len(s.Jobs()) != jobsAfterFirst+2 {
		t.Fatalf("conf change re-executed %d jobs, want 2", len(s.Jobs())-jobsAfterFirst)
	}
}

// An evicted entry is dropped: its node re-executes on the next request,
// exactly once, and produces the same output as the first time.
func TestCacheEvictionDropsAndReruns(t *testing.T) {
	// The cache fits roughly one output.
	s := dag.NewSession(&mapreduce.LocalEngine{Parallelism: 2}, dag.Options{CacheBytes: 64})
	run := func(name string) []mapreduce.Pair {
		g := dag.NewGraph("evict")
		src := g.Source("in-"+name, pairsOf("k", strings.Repeat(name, 10)))
		out := g.Job(upperJob("up-"+name).WithReduces(1), src)
		outs, err := s.Run(context.Background(), g, out)
		if err != nil {
			t.Fatal(err)
		}
		return outs[0]
	}
	first := run("aaaa")
	run("bbbb") // evicts aaaa
	if s.Counters()[dag.CtrCacheEvictions] == 0 {
		t.Fatal("no evictions despite tiny cache")
	}
	jobs, hits := len(s.Jobs()), s.Counters()[dag.CtrCacheHits]
	again := run("aaaa")
	if got := len(s.Jobs()) - jobs; got != 1 {
		t.Fatalf("evicted node re-executed %d times, want 1", got)
	}
	if got := s.Jobs()[jobs].Name; got != "up-aaaa" {
		t.Fatalf("re-executed job = %q, want up-aaaa", got)
	}
	if s.Counters()[dag.CtrCacheHits] != hits {
		t.Fatal("evicted entry was served from the cache")
	}
	if fmt.Sprint(again) != fmt.Sprint(first) {
		t.Fatalf("re-executed output %v != first output %v", again, first)
	}
	// The re-run put aaaa back (evicting bbbb): now it is a hit.
	jobs = len(s.Jobs())
	run("aaaa")
	if len(s.Jobs()) != jobs || s.Counters()[dag.CtrCacheHits] != hits+1 {
		t.Fatal("re-cached entry was not served from the cache")
	}
}

func TestGCFreesDeadIntermediates(t *testing.T) {
	s := newSession(t, dag.Options{})
	g := dag.NewGraph("gc")
	src := g.Source("in", pairsOf("a", "1", "b", "2"))
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
	s := newSession(t, dag.Options{Workers: 1})
	g := dag.NewGraph("cancel")
	src := g.Source("in", pairsOf("k", "v"))
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

func TestStageDeduplicates(t *testing.T) {
	s := newSession(t, dag.Options{})
	input := pairsOf("a", "1", "b", "2")
	d1 := s.Stage("points", input)
	d2 := s.Stage("points", input)
	if d1 != d2 {
		t.Fatal("re-staging identical content returned a new dataset")
	}
	snap := s.Counters()
	if snap[dag.CtrStageDatasets] != 1 {
		t.Fatalf("dag.stage.datasets = %d, want 1", snap[dag.CtrStageDatasets])
	}
	want := mapreduce.PairsBytes(input)
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
	s := newSession(t, dag.Options{})
	other := dag.NewGraph("other")
	osrc := other.Source("o", pairsOf("k", "v"))
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
	s := newSession(t, dag.Options{})
	conf := mapreduce.Conf{"v": "first"}
	g := dag.NewGraph("conf")
	src := g.Source("in", pairsOf("k", "v"))
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
