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

// ExecuteMapTask runs job.Map over the records of one input split,
// applies the combiner (when configured), partitions the output into
// nReduce buckets, and returns the buckets sorted by key plus the task's
// phase spans. Shuffle bytes and record counters are accumulated into
// counters.
func ExecuteMapTask(job *Job, taskID, nReduce int, records []Pair, counters *Counters) ([][]Pair, []obs.Span, error) {
	if err := job.validate(); err != nil {
		return nil, nil, err
	}
	if nReduce <= 0 {
		return nil, nil, fmt.Errorf("mapreduce: map task with %d reduce partitions", nReduce)
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
		job:     job,
		ctx:     ctx,
		nReduce: nReduce,
		buf:     make([][]Pair, nReduce),
	}
	for _, rec := range records {
		if err := job.Map(ctx, rec.Key, rec.Value, em); err != nil {
			return nil, nil, fmt.Errorf("mapreduce: map task %d of %q: %w", taskID, job.Name, err)
		}
	}
	counters.Add(CtrMapInputRecords, int64(len(records)))
	counters.Add(CtrMapOutputRecords, em.outRecords)
	counters.Add(CtrMapOutputBytes, em.outBytes)
	out, err := em.close()
	if err != nil {
		return nil, nil, err
	}
	return out, em.taskSpans(start, time.Since(start), int64(len(records))), nil
}

// ExecuteReduceTask merges one reduce partition's sorted sources — sorted[t]
// is map task t's slice of the partition — and runs job.Reduce over each key
// group, returning the task's output pairs and its reduce span.
//
// mergeGroups breaks equal keys by source index, so a key's values reach the
// reducer map-task-major: all of task t's, in the order task t emitted them,
// then task t+1's. A reducer that sums floats or keeps the first of several
// ties depends on it (TestReduceSeesMapTaskOrder pins it on both engines).
//
// For a map-only job it concatenates the slices and emits no span,
// matching the local engine (which skips the reduce phase entirely) so span
// counts agree across engines.
func ExecuteReduceTask(job *Job, taskID, nReduce int, sorted [][]Pair, counters *Counters) ([]Pair, []obs.Span, error) {
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
	var out []Pair
	sink := EmitterFunc(func(key string, value []byte) {
		out = append(out, Pair{Key: key, Value: value})
	})
	var groups, records int64
	err := mergeGroups(sorted, func(key string, values [][]byte) error {
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
