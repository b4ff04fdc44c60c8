package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Result is the outcome of one job execution.
type Result struct {
	Output   []Pair
	Counters *Counters
	Wall     time.Duration
	// Trace holds the job's task-phase spans when the engine collected
	// them (both engines do); nil otherwise.
	Trace *obs.JobTrace
}

// JobStats is the ledger entry of one executed job: what dag.Session
// records per job and pipelines report in their stats.
type JobStats struct {
	Name     string
	Wall     time.Duration
	Counters map[string]int64
	Records  int // output records
}

// Engine executes MapReduce jobs. Implementations: LocalEngine (in-process,
// multicore) and rpcmr.Master (distributed over net/rpc). Run honors ctx:
// cancellation stops dispatching new tasks and fails the job with ctx.Err(),
// so a SIGINT-wired context tears a pipeline down gracefully instead of
// killing the process mid-shuffle.
type Engine interface {
	Run(ctx context.Context, job *Job, input []Pair) (*Result, error)
}

// LocalEngine runs jobs in-process with worker goroutines. It is the
// default substrate for experiments: it exercises the full dataflow
// (split, map, combine, partition, sort/group, reduce) with honest byte
// accounting, just without network transport.
type LocalEngine struct {
	// Parallelism bounds concurrent map and reduce tasks.
	// <=0 means runtime.NumCPU().
	Parallelism int
}

func (e *LocalEngine) parallelism() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.NumCPU()
}

// taskEmitter buffers map output per partition. Not safe for concurrent
// use; each map task owns one. Alongside the data it accumulates the
// per-phase wall times and volumes that become the task's trace spans.
type taskEmitter struct {
	job         *Job
	ctx         *TaskContext
	nReduce     int
	buf         [][]Pair
	sortScratch []Pair // merge buffer reused across partition sorts

	outRecords, outBytes int64

	// Phase accounting for the task's trace spans.
	combineWall    time.Duration
	sortWall       time.Duration
	combineIn      int64
	shuffleRecords int64
	shuffleBytes   int64
}

func (t *taskEmitter) Emit(key string, value []byte) {
	p := hashPartition(key, t.nReduce)
	t.buf[p] = append(t.buf[p], Pair{Key: key, Value: value})
	t.outRecords++
	t.outBytes += int64(len(key) + len(value))
}

// finishPartition sorts (and combines) one partition buffer, returning the
// shuffle-ready pairs.
func (t *taskEmitter) finishPartition(p int) ([]Pair, error) {
	ps := t.buf[p]
	s0 := time.Now()
	t.sortScratch = sortPairsScratch(ps, t.sortScratch)
	t.sortWall += time.Since(s0)
	if t.job.Combine == nil {
		return ps, nil
	}
	c0 := time.Now()
	combined, in, err := runCombiner(t.ctx, t.job.Combine, ps)
	t.combineWall += time.Since(c0)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: combiner in %q: %w", t.job.Name, err)
	}
	t.combineIn += int64(in)
	t.ctx.Counters.Add(CtrCombineInputRecords, int64(in))
	// Combiners may emit under new keys, so re-establish sort order.
	s1 := time.Now()
	t.sortScratch = sortPairsScratch(combined, t.sortScratch)
	t.sortWall += time.Since(s1)
	return combined, nil
}

// close finalizes the buffers into sorted in-memory partitions.
func (t *taskEmitter) close() ([][]Pair, error) {
	out := make([][]Pair, t.nReduce)
	for p := range t.buf {
		if len(t.buf[p]) == 0 {
			continue
		}
		ps, err := t.finishPartition(p)
		if err != nil {
			return nil, err
		}
		bytes := PairsBytes(ps)
		t.ctx.Counters.Add(CtrShuffleBytes, bytes)
		t.ctx.Counters.Add(CtrShuffleRecords, int64(len(ps)))
		t.shuffleBytes += bytes
		t.shuffleRecords += int64(len(ps))
		out[p] = ps
	}
	return out, nil
}

// taskSpans converts the accumulated phase accounting into this map
// task's trace spans. The map span is charged the task wall MINUS the
// combine/sort time, so a job's phase walls partition its task walls
// instead of double-counting. The shuffle span carries the post-combine
// volume and no wall (partitions are handed over in memory) — summing its
// Bytes over a job's shuffle spans reproduces CtrShuffleBytes exactly (the
// trace invariant the conformance test asserts). Span counts are a pure
// function of job shape: map + sort + shuffle, plus combine when a combiner
// is configured.
func (t *taskEmitter) taskSpans(start time.Time, wall time.Duration, inRecords int64) []obs.Span {
	base := obs.Span{Job: t.job.Name, Task: t.ctx.TaskID, Start: start}
	mapWall := wall - t.combineWall - t.sortWall
	if mapWall < 0 {
		mapWall = 0
	}
	spans := make([]obs.Span, 0, 4)
	m := base
	m.Phase, m.Wall, m.Records = obs.PhaseMap, mapWall, inRecords
	spans = append(spans, m)
	if t.job.Combine != nil {
		c := base
		c.Phase, c.Wall, c.Records = obs.PhaseCombine, t.combineWall, t.combineIn
		spans = append(spans, c)
	}
	s := base
	s.Phase, s.Wall = obs.PhaseSort, t.sortWall
	spans = append(spans, s)
	sh := base
	sh.Phase = obs.PhaseShuffle
	sh.Records, sh.Bytes = t.shuffleRecords, t.shuffleBytes
	spans = append(spans, sh)
	return spans
}

// Run executes the job on input and returns its output pairs, counters,
// and trace. Output order is deterministic: reduce partitions in index
// order, keys in sorted order within each partition. Cancelling ctx stops
// dispatching new tasks; in-flight tasks drain and Run returns ctx.Err().
func (e *LocalEngine) Run(ctx context.Context, job *Job, input []Pair) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := job.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	workers := e.parallelism()
	nMaps := job.NumMaps
	if nMaps <= 0 {
		nMaps = workers
	}
	if nMaps > len(input) {
		nMaps = max(1, len(input))
	}
	nReduce := job.NumReduces
	if nReduce <= 0 {
		nReduce = workers
	}
	counters := NewCounters()

	// ---- Map phase ----
	splits := SplitInput(input, nMaps)
	mapOuts := make([][][]Pair, len(splits)) // map task → partition → pairs
	mapSpans := make([][]obs.Span, len(splits))
	err := runParallelCtx(ctx, len(splits), workers, func(ti int) (err error) {
		mapOuts[ti], mapSpans[ti], err = ExecuteMapTask(job, ti, nReduce, splits[ti], counters)
		return err
	})
	if err != nil {
		return nil, err
	}
	trace := &obs.JobTrace{Job: job.Name}
	for _, ss := range mapSpans {
		trace.Spans = append(trace.Spans, ss...)
	}

	var output []Pair
	if job.Reduce == nil {
		// Map-only job: concatenate map outputs in task order.
		for _, parts := range mapOuts {
			for _, ps := range parts {
				output = append(output, ps...)
			}
		}
	} else {
		// ---- Reduce phase ----
		reduceOuts := make([][]Pair, nReduce)
		reduceSpans := make([][]obs.Span, nReduce)
		err = runParallelCtx(ctx, nReduce, workers, func(r int) (err error) {
			sorted := make([][]Pair, len(mapOuts))
			for t, parts := range mapOuts {
				sorted[t] = parts[r]
			}
			reduceOuts[r], reduceSpans[r], err = ExecuteReduceTask(job, r, nReduce, sorted, counters)
			return err
		})
		if err != nil {
			return nil, err
		}
		for r, ps := range reduceOuts {
			output = append(output, ps...)
			trace.Spans = append(trace.Spans, reduceSpans[r]...)
		}
	}
	trace.Wall = time.Since(start)
	trace.Counters = counters.Snapshot()
	return &Result{Output: output, Counters: counters, Wall: trace.Wall, Trace: trace}, nil
}

// SplitInput partitions input records into n contiguous splits of
// near-equal size. Fewer than n splits are returned when input is shorter.
// Every engine splits with it, so a job's map tasks see the same records
// whichever engine runs it.
func SplitInput(input []Pair, n int) [][]Pair {
	if len(input) == 0 {
		return [][]Pair{nil}
	}
	if n > len(input) {
		n = len(input)
	}
	splits := make([][]Pair, 0, n)
	base, rem := len(input)/n, len(input)%n
	off := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		splits = append(splits, input[off:off+size])
		off += size
	}
	return splits
}

// runParallelCtx runs fn(0..n-1) with at most workers concurrent
// invocations and returns the first error. Dispatch stops once any
// invocation fails, so a failing job returns after the in-flight tasks drain
// instead of grinding through the remaining queue. A cancelled ctx stops
// dispatch like a task failure does, and ctx.Err() wins over task errors so
// callers see the cancellation rather than a secondary failure.
func runParallelCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	done := ctx.Done()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failOnce sync.Once
	)
	next := make(chan int)
	failed := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failOnce.Do(func() { close(failed) })
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-failed:
			break dispatch
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
