package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestRunFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ps := []Pair{
		{Key: "a", Value: []byte("1")},
		{Key: "b", Value: nil},
		{Key: "b", Value: []byte("payload with spaces")},
		{Key: "z", Value: make([]byte, 1000)},
	}
	path := filepath.Join(dir, "r.run")
	n, err := writeRun(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("writeRun bytes = %d", n)
	}
	it, err := openRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer it.close()
	for i, want := range ps {
		got, ok, err := it.next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if got.Key != want.Key || string(got.Value) != string(want.Value) {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok, err := it.next(); ok || err != nil {
		t.Fatalf("want clean EOF, got ok=%v err=%v", ok, err)
	}
}

func TestCorruptRunFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.run")
	if _, err := writeRun(path, []Pair{{Key: "abc", Value: []byte("xyz")}}); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record.
	trunc := filepath.Join(dir, "t.run")
	data := readFile(t, path)
	writeFile(t, trunc, data[:len(data)-2])
	it, err := openRun(trunc)
	if err != nil {
		t.Fatal(err)
	}
	defer it.close()
	if _, _, err := it.next(); err == nil {
		t.Fatal("want error on truncated run")
	}
}

func TestMergeGroupsOrdersAndGroups(t *testing.T) {
	its := []pairIterator{
		&sliceIterator{ps: []Pair{{Key: "a", Value: []byte("1")}, {Key: "c", Value: []byte("2")}}},
		&sliceIterator{ps: []Pair{{Key: "a", Value: []byte("3")}, {Key: "b", Value: []byte("4")}}},
		&sliceIterator{ps: nil},
	}
	var keys []string
	var sizes []int
	err := mergeGroups(its, func(key string, values [][]byte) error {
		keys = append(keys, key)
		sizes = append(sizes, len(values))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[a b c]" || fmt.Sprint(sizes) != "[2 1 1]" {
		t.Fatalf("keys=%v sizes=%v", keys, sizes)
	}
}

// Property: a spilling engine produces the same grouped result as the
// in-memory engine for arbitrary record streams.
func TestSpillEquivalenceProperty(t *testing.T) {
	job := func() *Job {
		return &Job{
			Name: "group-count",
			Map: func(_ *TaskContext, _ string, value []byte, out Emitter) error {
				out.Emit(string(value[:1]), value[1:])
				return nil
			},
			Reduce: func(_ *TaskContext, key string, values [][]byte, out Emitter) error {
				total := 0
				for _, v := range values {
					total += len(v)
				}
				out.Emit(key, []byte(strconv.Itoa(total)))
				return nil
			},
		}
	}
	f := func(recs [][]byte) bool {
		var input []Pair
		for _, r := range recs {
			if len(r) == 0 {
				continue
			}
			input = append(input, Pair{Value: r})
		}
		mem := &LocalEngine{Parallelism: 3}
		spill := &LocalEngine{Parallelism: 3, SpillThresholdBytes: 16}
		a, err := mem.Run(context.Background(), job(), input)
		if err != nil {
			return false
		}
		b, err := spill.Run(context.Background(), job(), input)
		if err != nil {
			return false
		}
		return samePairs(a.Output, b.Output)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSpillActuallySpills(t *testing.T) {
	eng := &LocalEngine{Parallelism: 2, SpillThresholdBytes: 64}
	input := make([]Pair, 200)
	for i := range input {
		input[i] = Pair{Value: []byte(fmt.Sprintf("k%d payload-%d", i%5, i))}
	}
	job := &Job{
		Name: "spiller",
		Map: func(_ *TaskContext, _ string, value []byte, out Emitter) error {
			out.Emit(string(value[:2]), value)
			return nil
		},
		Reduce: func(_ *TaskContext, key string, values [][]byte, out Emitter) error {
			out.Emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
	}
	res, err := eng.Run(context.Background(), job, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrSpilledRuns) == 0 {
		t.Fatal("no spills happened despite tiny threshold")
	}
	total := 0
	for _, p := range res.Output {
		n, _ := strconv.Atoi(string(p.Value))
		total += n
	}
	if total != 200 {
		t.Fatalf("records after spill = %d, want 200", total)
	}
}

// The order values reach a reducer is part of the engine's contract:
// sources are merged map-task-major — task t's in-memory partition, then
// task t's run files in spill order — and equal keys break by source. A
// reducer that folds floats or keeps the first of several ties depends on
// it. The golden string was taken from the engine's inline reduce body
// before the task executor was unified.
func TestSpillKeepsArrivalOrder(t *testing.T) {
	// 3 map tasks × 7 records, all under one key; 3-byte records against a
	// 9-byte threshold spill each task after its 3rd and 6th record and
	// leave the 7th in memory.
	var input []Pair
	for task := 0; task < 3; task++ {
		for i := 0; i < 7; i++ {
			input = append(input, Pair{Value: []byte(fmt.Sprintf("%c%d", 'a'+task, i))})
		}
	}
	job := &Job{
		Name:       "arrival",
		NumMaps:    3,
		NumReduces: 1,
		Map: func(_ *TaskContext, _ string, value []byte, out Emitter) error {
			out.Emit("k", value)
			return nil
		},
		Reduce: func(_ *TaskContext, key string, values [][]byte, out Emitter) error {
			out.Emit(key, bytes.Join(values, []byte(" ")))
			return nil
		},
	}
	const golden = "a6 a0 a1 a2 a3 a4 a5 b6 b0 b1 b2 b3 b4 b5 c6 c0 c1 c2 c3 c4 c5"
	for _, par := range []int{1, 3} {
		eng := &LocalEngine{Parallelism: par, SpillThresholdBytes: 9, TempDir: t.TempDir()}
		res, err := eng.Run(context.Background(), job, input)
		if err != nil {
			t.Fatal(err)
		}
		if runs := res.Counters.Get(CtrSpilledRuns); runs != 6 {
			t.Fatalf("parallelism %d: %d spilled runs, want 2 per map task", par, runs)
		}
		if len(res.Output) != 1 || string(res.Output[0].Value) != golden {
			t.Fatalf("parallelism %d: reducer saw %q, want %q", par, res.Output, golden)
		}
	}
}

// BenchmarkRunIteratorNext measures the per-record decode cost of
// streaming a run file back — the hot loop of every spilling reduce and,
// since the frame layout is shared, of the rpcmr shuffle transport.
// With a fresh key slice per record this sat at 4 allocs/op and 112 B/op;
// the grow-only key buffer in FrameReader drops it to 3 allocs/op and
// 96 B/op — only the key string conversion and the retained value (plus
// amortized buffer growth) allocate.
func BenchmarkRunIteratorNext(b *testing.B) {
	dir := b.TempDir()
	ps := make([]Pair, 4096)
	for i := range ps {
		ps[i] = Pair{
			Key:   fmt.Sprintf("key-%08d", i),
			Value: []byte(fmt.Sprintf("value-payload-%08d-%032d", i, i)),
		}
	}
	path := filepath.Join(dir, "bench.run")
	if _, err := writeRun(path, ps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	it, err := openRun(path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		p, ok, err := it.next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			it.close()
			if it, err = openRun(path); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if len(p.Key) == 0 {
			b.Fatal("empty key")
		}
	}
	it.close()
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p Pair) string { return p.Key + "\x00" + string(p.Value) }
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := osReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := osWriteFile(path, data); err != nil {
		t.Fatal(err)
	}
}
