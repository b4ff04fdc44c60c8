package mapreduce

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func sumReduce(_ *TaskContext, key string, values [][]byte, out Emitter) error {
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

func wordcount() *Job {
	return &Job{
		Name: "wordcount",
		Map: func(_ *TaskContext, _ string, value []byte, out Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				out.Emit(w, []byte("1"))
			}
			return nil
		},
		Combine: sumReduce,
		Reduce:  sumReduce,
	}
}

func lines(ss ...string) []Pair {
	ps := make([]Pair, len(ss))
	for i, s := range ss {
		ps[i] = Pair{Value: []byte(s)}
	}
	return ps
}

func outputMap(ps []Pair) map[string]string {
	m := make(map[string]string, len(ps))
	for _, p := range ps {
		m[p.Key] = string(p.Value)
	}
	return m
}

func TestWordcount(t *testing.T) {
	eng := &LocalEngine{Parallelism: 4}
	res, err := eng.Run(context.Background(), wordcount(), lines("a b a", "b c", "a"))
	if err != nil {
		t.Fatal(err)
	}
	got := outputMap(res.Output)
	want := map[string]string{"a": "3", "b": "2", "c": "1"}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %q, want %q (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("extra keys: %v", got)
	}
}

func TestCountersAccounting(t *testing.T) {
	eng := &LocalEngine{Parallelism: 2}
	res, err := eng.Run(context.Background(), wordcount(), lines("x x x x", "y y"))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if got := c.Get(CtrMapInputRecords); got != 2 {
		t.Fatalf("map input = %d", got)
	}
	if got := c.Get(CtrMapOutputRecords); got != 6 {
		t.Fatalf("map output = %d", got)
	}
	// Combiner collapses per task: with 2 tasks of one line each, shuffle
	// records = 2 (one "x" total, one "y" total).
	if got := c.Get(CtrShuffleRecords); got != 2 {
		t.Fatalf("shuffle records = %d", got)
	}
	if got := c.Get(CtrReduceInputGroups); got != 2 {
		t.Fatalf("reduce groups = %d", got)
	}
	if got := c.Get(CtrReduceOutputRecords); got != 2 {
		t.Fatalf("reduce output = %d", got)
	}
	// Shuffle bytes: keys "x","y" + values "4","2" = 4 bytes total.
	if got := c.Get(CtrShuffleBytes); got != 4 {
		t.Fatalf("shuffle bytes = %d", got)
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	input := lines("w w w w w w w w", "w w w w")
	with := wordcount()
	eng := &LocalEngine{Parallelism: 2}
	resWith, err := eng.Run(context.Background(), with, input)
	if err != nil {
		t.Fatal(err)
	}
	without := wordcount()
	without.Combine = nil
	resWithout, err := eng.Run(context.Background(), without, input)
	if err != nil {
		t.Fatal(err)
	}
	if outputMap(resWith.Output)["w"] != "12" || outputMap(resWithout.Output)["w"] != "12" {
		t.Fatal("combiner changed the result")
	}
	if resWith.Counters.Get(CtrShuffleRecords) >= resWithout.Counters.Get(CtrShuffleRecords) {
		t.Fatalf("combiner did not reduce shuffle records: %d vs %d",
			resWith.Counters.Get(CtrShuffleRecords), resWithout.Counters.Get(CtrShuffleRecords))
	}
}

func TestMapOnlyJob(t *testing.T) {
	job := &Job{
		Name: "map-only",
		Map: func(_ *TaskContext, _ string, value []byte, out Emitter) error {
			out.Emit(strings.ToUpper(string(value)), value)
			return nil
		},
	}
	eng := &LocalEngine{Parallelism: 3}
	res, err := eng.Run(context.Background(), job, lines("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 3 {
		t.Fatalf("map-only output = %v", res.Output)
	}
	if res.Counters.Get(CtrReduceInputGroups) != 0 {
		t.Fatal("map-only job ran reducers")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	job := &Job{
		Name: "boom",
		Map: func(_ *TaskContext, _ string, value []byte, _ Emitter) error {
			if string(value) == "bad" {
				return fmt.Errorf("poisoned record")
			}
			return nil
		},
		Reduce: sumReduce,
	}
	eng := &LocalEngine{Parallelism: 2}
	_, err := eng.Run(context.Background(), job, lines("ok", "bad", "ok"))
	if err == nil || !strings.Contains(err.Error(), "poisoned record") {
		t.Fatalf("want poisoned record error, got %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	job := wordcount()
	job.Combine = nil
	job.Reduce = func(_ *TaskContext, key string, _ [][]byte, _ Emitter) error {
		if key == "b" {
			return fmt.Errorf("reduce exploded")
		}
		return nil
	}
	eng := &LocalEngine{}
	_, err := eng.Run(context.Background(), job, lines("a b c"))
	if err == nil || !strings.Contains(err.Error(), "reduce exploded") {
		t.Fatalf("want reduce error, got %v", err)
	}
}

func TestJobValidation(t *testing.T) {
	eng := &LocalEngine{}
	if _, err := eng.Run(context.Background(), &Job{Name: "no-map"}, nil); err == nil {
		t.Fatal("want error for missing map")
	}
	if _, err := eng.Run(context.Background(), &Job{Map: wordcount().Map}, nil); err == nil {
		t.Fatal("want error for missing name")
	}
	if _, err := eng.Run(context.Background(), &Job{
		Name:    "combine-no-reduce",
		Map:     wordcount().Map,
		Combine: sumReduce,
	}, nil); err == nil {
		t.Fatal("want error for combiner without reducer")
	}
}

func TestEmptyInput(t *testing.T) {
	eng := &LocalEngine{}
	res, err := eng.Run(context.Background(), wordcount(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Fatalf("empty input produced %v", res.Output)
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	input := lines("z a m", "b z q", "a a z")
	eng := &LocalEngine{Parallelism: 4}
	first, err := eng.Run(context.Background(), wordcount(), input)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := eng.Run(context.Background(), wordcount(), input)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Output) != len(first.Output) {
			t.Fatal("output length changed across runs")
		}
		for j := range res.Output {
			if res.Output[j].Key != first.Output[j].Key ||
				string(res.Output[j].Value) != string(first.Output[j].Value) {
				t.Fatalf("run %d output differs at %d", i, j)
			}
		}
	}
}

func TestHashPartitionRange(t *testing.T) {
	for _, key := range []string{"", "a", "abc", "0|12.-4.9", strings.Repeat("x", 100)} {
		for _, n := range []int{1, 2, 7, 64} {
			p := hashPartition(key, n)
			if p < 0 || p >= n {
				t.Fatalf("hashPartition(%q, %d) = %d", key, n, p)
			}
		}
	}
}

func TestSplitInput(t *testing.T) {
	input := make([]Pair, 10)
	splits := SplitInput(input, 3)
	if len(splits) != 3 {
		t.Fatalf("got %d splits", len(splits))
	}
	total := 0
	for _, s := range splits {
		total += len(s)
	}
	if total != 10 {
		t.Fatalf("splits cover %d records", total)
	}
	if len(SplitInput(input, 20)) != 10 {
		t.Fatal("more splits than records")
	}
	if got := SplitInput(nil, 5); len(got) != 1 || got[0] != nil {
		t.Fatalf("empty split = %v", got)
	}
}

// Property: for random inputs, the engine computes the same word counts as
// a direct sequential fold, for any parallelism and reduce count.
func TestEngineMatchesSequentialFold(t *testing.T) {
	f := func(words []uint8, parallelism uint8, reduces uint8) bool {
		var input []Pair
		expect := map[string]int{}
		var line []string
		for i, w := range words {
			word := fmt.Sprintf("w%d", w%17)
			expect[word]++
			line = append(line, word)
			if i%5 == 4 {
				input = append(input, Pair{Value: []byte(strings.Join(line, " "))})
				line = nil
			}
		}
		if len(line) > 0 {
			input = append(input, Pair{Value: []byte(strings.Join(line, " "))})
		}
		job := wordcount()
		job.NumReduces = int(reduces%8) + 1
		eng := &LocalEngine{Parallelism: int(parallelism%8) + 1}
		res, err := eng.Run(context.Background(), job, input)
		if err != nil {
			return false
		}
		got := outputMap(res.Output)
		if len(got) != len(expect) {
			return false
		}
		for k, v := range expect {
			if got[k] != strconv.Itoa(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
