package mapreduce

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Task-level execution: the one map-task body and the one reduce-task body.
// LocalEngine.Run calls them for every task of a job and an rpcmr worker
// calls them for every task the master hands it, so "local and cluster run
// the same code" holds by construction rather than by a test comparing two
// copies. Both return the task's trace spans alongside its data so the rpcmr
// worker can ship them back to the master in CompleteArgs.

// Spill tells a map task when to move its buffered output to sorted run
// files and where to put them. The zero value never spills, which is what an
// rpcmr worker passes: it serves partitions to reducers from memory.
type Spill struct {
	// ThresholdBytes is the buffered intermediate volume that triggers a
	// spill of every partition buffer; 0 disables spilling.
	ThresholdBytes int64
	// Dir receives the run files; the caller creates and removes it.
	Dir string
}

// MapOutput is one map task's shuffle-ready output, per reduce partition:
// the sorted (and combined) pairs still in memory when the task finished,
// and the sorted run files it spilled before that, in spill order.
type MapOutput struct {
	Mem  [][]Pair
	Runs [][]string
}

// ExecuteMapTask runs job.Map over the records of one input split,
// applies the combiner (when configured), partitions the output into
// nReduce buckets, and returns the buckets sorted by key plus the task's
// phase spans. Shuffle bytes and record counters are accumulated into
// counters. A map-only job never spills: its map output is the job's
// result and is returned from memory.
func ExecuteMapTask(job *Job, taskID, nReduce int, records []Pair, spill Spill, counters *Counters) (*MapOutput, []obs.Span, error) {
	if err := job.validate(); err != nil {
		return nil, nil, err
	}
	if nReduce <= 0 {
		return nil, nil, fmt.Errorf("mapreduce: map task with %d reduce partitions", nReduce)
	}
	if job.Reduce == nil {
		spill = Spill{}
	}
	start := time.Now()
	ctx := &TaskContext{
		JobName:    job.Name,
		TaskID:     taskID,
		NumReduces: nReduce,
		Conf:       job.Conf,
		Counters:   counters,
	}
	em := &taskEmitter{
		spill:   spill,
		job:     job,
		ctx:     ctx,
		part:    job.partitioner(),
		nReduce: nReduce,
		buf:     make([][]Pair, nReduce),
		runs:    make([][]string, nReduce),
	}
	for _, rec := range records {
		if err := job.Map(ctx, rec.Key, rec.Value, em); err != nil {
			return nil, nil, fmt.Errorf("mapreduce: map task %d of %q: %w", taskID, job.Name, err)
		}
		// Emit cannot return an error; a failed spill sticks to the
		// emitter and ends the task at the next record.
		if em.err != nil {
			return nil, nil, em.err
		}
	}
	counters.Add(CtrMapInputRecords, int64(len(records)))
	counters.Add(CtrMapOutputRecords, em.outRecords)
	out, err := em.close()
	if err != nil {
		return nil, nil, err
	}
	return out, em.taskSpans(start, time.Since(start), int64(len(records))), nil
}

// ExecuteReduceTask merges one reduce partition's sorted sources — sorted[t]
// is map task t's in-memory slice, runs[t] its run files (nil when nothing
// spilled, as on an rpcmr worker) — and runs job.Reduce over each key group,
// returning the task's output pairs and its reduce span.
//
// Sources enter the merge map-task-major: task t's memory slice, then task
// t's runs in spill order, then task t+1's. mergeGroups breaks equal keys by
// source index, so this order IS the order values reach a reducer; a reducer
// that sums floats or keeps the first of several ties depends on it
// (TestSpillKeepsArrivalOrder pins it).
//
// For a map-only job it concatenates the in-memory slices and emits no
// span, matching the local engine (which skips the reduce phase entirely)
// so span counts agree across engines.
func ExecuteReduceTask(job *Job, taskID, nReduce int, sorted [][]Pair, runs [][]string, counters *Counters) ([]Pair, []obs.Span, error) {
	if err := job.validate(); err != nil {
		return nil, nil, err
	}
	if job.Reduce == nil {
		var out []Pair
		for _, ps := range sorted {
			out = append(out, ps...)
		}
		return out, nil, nil
	}
	start := time.Now()
	ctx := &TaskContext{
		JobName:    job.Name,
		TaskID:     taskID,
		NumReduces: nReduce,
		Conf:       job.Conf,
		Counters:   counters,
	}
	var its []pairIterator
	for t, ps := range sorted {
		if len(ps) > 0 {
			its = append(its, &sliceIterator{ps: ps})
		}
		if t >= len(runs) {
			continue
		}
		for _, path := range runs[t] {
			ri, err := openRun(path)
			if err != nil {
				for _, it := range its {
					it.close()
				}
				return nil, nil, err
			}
			its = append(its, ri)
		}
	}
	var out []Pair
	sink := EmitterFunc(func(key string, value []byte) {
		out = append(out, Pair{Key: key, Value: value})
	})
	var groups, records int64
	err := mergeGroups(its, func(key string, values [][]byte) error {
		groups++
		records += int64(len(values))
		return job.Reduce(ctx, key, values, sink)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("mapreduce: reduce task %d of %q: %w", taskID, job.Name, err)
	}
	counters.Add(CtrReduceInputGroups, groups)
	counters.Add(CtrReduceInputRecords, records)
	counters.Add(CtrReduceOutputRecords, int64(len(out)))
	span := obs.Span{
		Job: job.Name, Phase: obs.PhaseReduce, Task: taskID,
		Start: start, Wall: time.Since(start), Records: records,
	}
	return out, []obs.Span{span}, nil
}
