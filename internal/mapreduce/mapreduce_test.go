package mapreduce

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestConfTypedAccessors(t *testing.T) {
	c := Conf{}
	c.SetInt("i", 42)
	c.SetFloat("f", 2.5)
	c.SetInt64("l", 1<<40)
	c.SetBool("b", true)
	if c.GetInt("i", 0) != 42 || c.GetFloat("f", 0) != 2.5 ||
		c.GetInt64("l", 0) != 1<<40 || !c.GetBool("b", false) {
		t.Fatalf("accessors: %v", c)
	}
	// Defaults for missing keys.
	if c.GetInt("missing", 7) != 7 || c.GetFloat("missing", 1.5) != 1.5 ||
		c.GetInt64("missing", 9) != 9 || c.GetBool("missing", true) != true {
		t.Fatal("defaults not honored")
	}
	// Full float precision survives.
	c.SetFloat("pi", 3.141592653589793)
	if c.GetFloat("pi", 0) != 3.141592653589793 {
		t.Fatal("float precision lost")
	}
}

func TestConfClone(t *testing.T) {
	c := Conf{"a": "1"}
	d := c.Clone()
	d["a"] = "2"
	if c["a"] != "1" {
		t.Fatal("Clone aliased the map")
	}
	var nilConf Conf
	if got := nilConf.Clone(); got == nil || len(got) != 0 {
		t.Fatalf("nil Clone = %v", got)
	}
}

func TestConfPanicsOnMalformed(t *testing.T) {
	c := Conf{"x": "not-a-number"}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on malformed int")
		}
	}()
	c.GetInt("x", 0)
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cell := c.Cell("hot")
			for i := 0; i < 1000; i++ {
				cell.Add(1)
				c.Add("cold", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("hot"); got != 8000 {
		t.Fatalf("hot = %d", got)
	}
	if got := c.Get("cold"); got != 8000 {
		t.Fatalf("cold = %d", got)
	}
	if got := c.Cell("hot").Load(); got != 8000 {
		t.Fatalf("cell load = %d", got)
	}
	var zero Cell
	zero.Add(5) // must not panic
	if zero.Load() != 0 {
		t.Fatal("zero cell should read 0")
	}
}

func TestCountersMergeAndSnapshot(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	snap := a.Snapshot()
	if snap["x"] != 3 || snap["y"] != 3 {
		t.Fatalf("merge = %v", snap)
	}
	if got := a.Get("zero"); got != 0 {
		t.Fatalf("missing counter = %d", got)
	}
	s := a.String()
	if !strings.Contains(s, "x") || !strings.Contains(s, "3") {
		t.Fatalf("String = %q", s)
	}
}

func TestExecuteTaskParityWithEngine(t *testing.T) {
	// The exported task-level functions (the one task body of both
	// engines) driven by hand must produce the same result as the local
	// engine driving them, in memory and spilling.
	input := lines("p q p", "r p q", "q q")
	// Same reduce count on both paths so span counts are comparable (the
	// engine defaults NumReduces to its parallelism).
	nReduce := 2
	for _, threshold := range []int64{0, 4} {
		eng := &LocalEngine{Parallelism: 2, SpillThresholdBytes: threshold, TempDir: t.TempDir()}
		engineRes, err := eng.Run(context.Background(), wordcount(), input)
		if err != nil {
			t.Fatal(err)
		}
		if spilled := engineRes.Counters.Get(CtrSpilledRuns) > 0; spilled != (threshold > 0) {
			t.Fatalf("threshold %d: spilled = %v", threshold, spilled)
		}

		counters := NewCounters()
		spill := Spill{ThresholdBytes: threshold, Dir: t.TempDir()}
		splits := SplitInput(input, 2)
		perTask := make([]*MapOutput, len(splits))
		var spanCount int
		for ti, split := range splits {
			out, spans, err := ExecuteMapTask(wordcount(), ti, nReduce, split, spill, counters)
			if err != nil {
				t.Fatal(err)
			}
			perTask[ti] = out
			spanCount += len(spans)
		}
		var manual []Pair
		for r := 0; r < nReduce; r++ {
			var sorted [][]Pair
			var runs [][]string
			for _, mo := range perTask {
				sorted = append(sorted, mo.Mem[r])
				runs = append(runs, mo.Runs[r])
			}
			out, spans, err := ExecuteReduceTask(wordcount(), r, nReduce, sorted, runs, counters)
			if err != nil {
				t.Fatal(err)
			}
			manual = append(manual, out...)
			spanCount += len(spans)
		}
		if engineSpans := len(engineRes.Trace.Spans); spanCount != engineSpans {
			t.Fatalf("threshold %d: task-level spans %d != engine spans %d", threshold, spanCount, engineSpans)
		}
		if !samePairs(engineRes.Output, manual) {
			t.Fatalf("threshold %d: task-level result %v differs from engine %v", threshold, manual, engineRes.Output)
		}
		if counters.Get(CtrShuffleBytes) != engineRes.Counters.Get(CtrShuffleBytes) {
			t.Fatalf("threshold %d: shuffle bytes differ: %d vs %d", threshold,
				counters.Get(CtrShuffleBytes), engineRes.Counters.Get(CtrShuffleBytes))
		}
	}
}

func TestExecuteMapTaskValidation(t *testing.T) {
	if _, _, err := ExecuteMapTask(wordcount(), 0, 0, nil, Spill{}, NewCounters()); err == nil {
		t.Fatal("want error for zero reduce partitions")
	}
	if _, _, err := ExecuteMapTask(&Job{Name: "x"}, 0, 1, nil, Spill{}, NewCounters()); err == nil {
		t.Fatal("want error for invalid job")
	}
}

func TestExecuteReduceTaskMapOnly(t *testing.T) {
	job := &Job{
		Name: "identity",
		Map: func(_ *TaskContext, key string, value []byte, out Emitter) error {
			out.Emit(key, value)
			return nil
		},
	}
	out, spans, err := ExecuteReduceTask(job, 0, 1, [][]Pair{{{Key: "k", Value: []byte("v")}}}, nil, NewCounters())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Key != "k" {
		t.Fatalf("map-only reduce = %v", out)
	}
	if spans != nil {
		t.Fatalf("map-only reduce emitted spans: %v", spans)
	}
}
