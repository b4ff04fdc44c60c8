package mapreduce

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestIDKeyRoundTrip holds the point-ID reduce key to its contract: the ID
// comes back from ParseIDKey, keys sort in ID order across the sign
// boundary, and the parser refuses every key that is not 4 bytes.
func TestIDKeyRoundTrip(t *testing.T) {
	ids := []int32{math.MinInt32, -1000000000, -16384, -10, -5, -1, 0, 1, 9, 10, 127, 128,
		12345, 16383, 16384, 999999999, math.MaxInt32}
	for i, id := range ids {
		key := IDKey(id)
		if got, err := ParseIDKey(key); err != nil || got != id {
			t.Fatalf("ParseIDKey(IDKey(%d)) = %d, %v", id, got, err)
		}
		if i > 0 && IDKey(ids[i-1]) >= key {
			t.Fatalf("IDKey(%d) = %x does not sort after IDKey(%d) = %x", id, key, ids[i-1], IDKey(ids[i-1]))
		}
	}
	for _, key := range []string{"", "\x00", "\x80\x00\x00", "\x80\x00\x00\x00\x00", "000000007"} {
		if id, err := ParseIDKey(key); err == nil {
			t.Errorf("ParseIDKey(%x) accepted as %d", key, id)
		}
	}
}

// TestSortByIDKey holds the aggregation jobs' input grouping to its
// contract on three inputs (one empty) whose IDs span the sign boundary and
// both 16-bit digits, and on IDs below 2¹⁶, which one pass sorts: every
// record comes out once, keys ascend, a key's records keep the argument
// order and then their input order, and no input moves. A key that is not
// four bytes long is an error.
func TestSortByIDKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ids := range [][]int32{
		{math.MinInt32, -70000, -1, 0, 1, 65535, 65536, 1 << 20, math.MaxInt32},
		{0, 1, 2, 3, 255, 256, 4000},
	} {
		outs := make([][]Pair, 3)
		for o := range outs {
			if o == 1 {
				continue
			}
			for x := range 200 {
				outs[o] = append(outs[o], Pair{Key: IDKey(ids[rng.Intn(len(ids))]), Value: []byte{byte(o), byte(x)}})
			}
		}
		before := make([][]Pair, len(outs))
		for o, out := range outs {
			before[o] = slices.Clone(out)
		}
		got, err := SortByIDKey(outs...)
		if err != nil {
			t.Fatal(err)
		}
		for o := range outs {
			if !reflect.DeepEqual(outs[o], before[o]) {
				t.Fatalf("input %d was reordered", o)
			}
		}
		if len(got) != 400 {
			t.Fatalf("%d records, want 400", len(got))
		}
		seen := map[[2]byte]bool{}
		for i, p := range got {
			tag := [2]byte(p.Value)
			if seen[tag] || outs[tag[0]][tag[1]].Key != p.Key {
				t.Fatalf("record %d (input %d, position %d) is a repeat or lost its key", i, tag[0], tag[1])
			}
			seen[tag] = true
			if i == 0 {
				continue
			}
			prev := got[i-1]
			if prev.Key > p.Key || prev.Key == p.Key && bytes.Compare(prev.Value, p.Value) >= 0 {
				t.Fatalf("record %d: key %x tag %v after key %x tag %v", i, p.Key, p.Value, prev.Key, prev.Value)
			}
		}
	}
	if got, err := SortByIDKey(nil, nil); err != nil || len(got) != 0 {
		t.Fatalf("no records: %v, %v", got, err)
	}
	for _, key := range []string{"", "abc", "abcde"} {
		if _, err := SortByIDKey([]Pair{{Key: IDKey(1)}}, []Pair{{Key: key}}); err == nil {
			t.Fatalf("a %d-byte key is no error", len(key))
		}
	}
}

// BenchmarkSortByIDKey times the grouping at the ρ̂ aggregation's input on
// the benchmark harness's batch-lshddp data: 130 006 partials of 30 000
// points, each point's spread over the input, IDs below 2¹⁶ (one pass) and
// across the int32 range (two), beside a stable comparison sort.
func BenchmarkSortByIDKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gen := func(id func() int32) []Pair {
		in := make([]Pair, 130006)
		for i := range in {
			in[i] = Pair{Key: IDKey(id()), Value: []byte{byte(i)}}
		}
		return in
	}
	dense := gen(func() int32 { return rng.Int31n(30000) })
	wide := gen(func() int32 { return int32(rng.Uint32()>>17) << 17 })
	for _, c := range []struct {
		name string
		in   []Pair
	}{{"radix/ids=30000", dense}, {"radix/ids=wide", wide}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SortByIDKey(c.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("stable/ids=30000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slices.SortStableFunc(slices.Clone(dense), func(x, y Pair) int { return strings.Compare(x.Key, y.Key) })
		}
	})
}

func TestConfTypedAccessors(t *testing.T) {
	c := Conf{}
	c.SetInt("i", 42)
	c.SetFloat("f", 2.5)
	c.SetInt64("l", 1<<40)
	if c.GetInt("i", 0) != 42 || c.GetFloat("f", 0) != 2.5 ||
		c.GetInt64("l", 0) != 1<<40 {
		t.Fatalf("accessors: %v", c)
	}
	// Defaults for missing keys.
	if c.GetInt("missing", 7) != 7 || c.GetFloat("missing", 1.5) != 1.5 ||
		c.GetInt64("missing", 9) != 9 {
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
	var zero Cell
	zero.Add(5) // must not panic
}

func TestCountersSnapshot(t *testing.T) {
	a := NewCounters()
	a.Add("x", 1)
	a.Add("x", 2)
	a.Add("y", 3)
	snap := a.Snapshot()
	if snap["x"] != 3 || snap["y"] != 3 {
		t.Fatalf("snapshot = %v", snap)
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
	// engine driving them.
	input := lines("p q p", "r p q", "q q")
	// Same reduce count on both paths so span counts are comparable (the
	// engine defaults NumReduces to its parallelism).
	nReduce := 2
	eng := &LocalEngine{Parallelism: 2}
	engineRes, err := eng.Run(context.Background(), wordcount(), input)
	if err != nil {
		t.Fatal(err)
	}

	counters := NewCounters()
	splits := SplitInput(input, 2)
	perTask := make([][][]Pair, len(splits))
	var spanCount int
	for ti, split := range splits {
		out, spans, err := ExecuteMapTask(wordcount(), ti, nReduce, split, counters)
		if err != nil {
			t.Fatal(err)
		}
		perTask[ti] = out
		spanCount += len(spans)
	}
	var manual []Pair
	for r := 0; r < nReduce; r++ {
		var sorted [][]Pair
		for _, parts := range perTask {
			sorted = append(sorted, parts[r])
		}
		out, spans, err := ExecuteReduceTask(wordcount(), r, nReduce, sorted, counters)
		if err != nil {
			t.Fatal(err)
		}
		manual = append(manual, out...)
		spanCount += len(spans)
	}
	if engineSpans := len(engineRes.Trace.Spans); spanCount != engineSpans {
		t.Fatalf("task-level spans %d != engine spans %d", spanCount, engineSpans)
	}
	if !reflect.DeepEqual(engineRes.Output, manual) {
		t.Fatalf("task-level result %v differs from engine %v", manual, engineRes.Output)
	}
	if counters.Get(CtrShuffleBytes) != engineRes.Counters.Get(CtrShuffleBytes) {
		t.Fatalf("shuffle bytes differ: %d vs %d",
			counters.Get(CtrShuffleBytes), engineRes.Counters.Get(CtrShuffleBytes))
	}
}

func TestExecuteMapTaskValidation(t *testing.T) {
	if _, _, err := ExecuteMapTask(wordcount(), 0, 0, nil, NewCounters()); err == nil {
		t.Fatal("want error for zero reduce partitions")
	}
	if _, _, err := ExecuteMapTask(&Job{Name: "x"}, 0, 1, nil, NewCounters()); err == nil {
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
	out, spans, err := ExecuteReduceTask(job, 0, 1, [][]Pair{{{Key: "k", Value: []byte("v")}}}, NewCounters())
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
