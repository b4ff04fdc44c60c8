// Package mapreduce is a from-scratch MapReduce framework: typed jobs with
// user Map / Combine / Reduce functions, a hash-partitioned sort/group
// shuffle, byte-accurate cost counters, an optional spill-to-disk external
// merge sort, and a parallel in-process engine. A companion package
// (rpcmr) runs the same jobs on a real master/worker cluster over net/rpc.
//
// The layering is Engine → dag.Session → pipeline. An Engine runs one job
// (Run); LocalEngine and rpcmr.Master are the two, and both split input with
// SplitInput and execute every task with ExecuteMapTask / ExecuteReduceTask,
// so a job behaves the same on either by construction. Scheduling several
// jobs, and keeping the record of what ran, is the dag package's business —
// this package has no job ledger.
//
// The framework deliberately mirrors Hadoop's execution model — the system
// the reproduced paper ("Efficient Distributed Density Peaks for Clustering
// Large Data Sets in MapReduce") was evaluated on — so that the paper's two
// cost metrics, shuffled bytes and distance computations, are measured at
// the same dataflow points:
//
//	input splits → map tasks → [combine] → partition → sort/group → reduce tasks → output
//
// Shuffle bytes are accounted after the combiner (when one is configured),
// exactly where Hadoop's "reduce shuffle bytes" counter sits.
package mapreduce

import (
	"fmt"
	"hash/fnv"
	"strconv"
)

// Pair is a key-value record. Keys are strings (they must sort and hash);
// values are opaque bytes encoded by the job (see internal/points codecs).
type Pair struct {
	Key   string
	Value []byte
}

// Emitter receives output records from map, combine, and reduce functions.
type Emitter interface {
	Emit(key string, value []byte)
}

// EmitterFunc adapts a function to the Emitter interface.
type EmitterFunc func(key string, value []byte)

// Emit calls f.
func (f EmitterFunc) Emit(key string, value []byte) { f(key, value) }

// MapFunc transforms one input record into any number of intermediate
// records. It must be safe for concurrent invocation across tasks: closures
// may read shared config but must write only through ctx and out.
type MapFunc func(ctx *TaskContext, key string, value []byte, out Emitter) error

// ReduceFunc folds all values grouped under one intermediate key. The same
// signature serves combiners (run map-side over partial groups) and
// reducers (run over complete groups).
type ReduceFunc func(ctx *TaskContext, key string, values [][]byte, out Emitter) error

// PartitionFunc maps an intermediate key to a reduce partition in
// [0, numReduces).
type PartitionFunc func(key string, numReduces int) int

// HashPartition is the default partitioner (FNV-1a, like Hadoop's hash
// partitioner in spirit).
func HashPartition(key string, numReduces int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(numReduces))
}

// Job is a single MapReduce job specification. Engines never mutate it, so
// one Job value can be run many times (the distributed engine registers Job
// templates by name and re-instantiates Conf per run).
type Job struct {
	// Name identifies the job in logs, counters, and the distributed
	// engine's job registry.
	Name string

	Map     MapFunc
	Combine ReduceFunc // optional; nil disables map-side combining
	Reduce  ReduceFunc // optional; nil makes the job map-only

	// Partition defaults to HashPartition when nil.
	Partition PartitionFunc

	// NumMaps is the number of map tasks (input splits). <=0 means one
	// task per engine worker.
	NumMaps int
	// NumReduces is the number of reduce partitions. <=0 means one per
	// engine worker.
	NumReduces int

	// Conf carries job-scoped configuration (the equivalent of Hadoop's
	// JobConf): algorithm parameters, broadcast values, etc.
	Conf Conf
}

// WithReduces sets the reduce-partition count and returns the job, so
// pipeline code reads `BasicRhoJob(conf).WithReduces(n)` instead of
// threading a helper through every package. It mutates and returns j —
// job factories return fresh values, so chaining is safe.
func (j *Job) WithReduces(n int) *Job {
	j.NumReduces = n
	return j
}

func (j *Job) validate() error {
	if j.Name == "" {
		return fmt.Errorf("mapreduce: job has no name")
	}
	if j.Map == nil {
		return fmt.Errorf("mapreduce: job %q has no map function", j.Name)
	}
	if j.Combine != nil && j.Reduce == nil {
		return fmt.Errorf("mapreduce: job %q has a combiner but no reducer", j.Name)
	}
	return nil
}

// partitioner returns the effective partition function.
func (j *Job) partitioner() PartitionFunc {
	if j.Partition != nil {
		return j.Partition
	}
	return HashPartition
}

// TaskContext is passed to every user function invocation. One context is
// shared by all records of a task attempt.
type TaskContext struct {
	JobName    string
	TaskID     int // map task index or reduce partition index
	NumReduces int
	Conf       Conf
	Counters   *Counters
}

// Conf is a string-typed configuration map with typed accessors, mirroring
// Hadoop's JobConf. Values must be strings so the distributed engine can
// ship them unchanged.
type Conf map[string]string

// Clone returns a copy of c (nil-safe).
func (c Conf) Clone() Conf {
	o := make(Conf, len(c))
	for k, v := range c {
		o[k] = v
	}
	return o
}

// GetInt returns the integer at key, or def when absent.
// Panics on a malformed value: configs are programmer-supplied.
func (c Conf) GetInt(key string, def int) int {
	s, ok := c[key]
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: conf %q=%q is not an int", key, s))
	}
	return v
}

// GetFloat returns the float64 at key, or def when absent.
func (c Conf) GetFloat(key string, def float64) float64 {
	s, ok := c[key]
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: conf %q=%q is not a float", key, s))
	}
	return v
}

// GetInt64 returns the int64 at key, or def when absent.
func (c Conf) GetInt64(key string, def int64) int64 {
	s, ok := c[key]
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: conf %q=%q is not an int64", key, s))
	}
	return v
}

// GetBool returns the bool at key, or def when absent.
func (c Conf) GetBool(key string, def bool) bool {
	s, ok := c[key]
	if !ok {
		return def
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: conf %q=%q is not a bool", key, s))
	}
	return v
}

// SetInt stores an integer.
func (c Conf) SetInt(key string, v int) { c[key] = strconv.Itoa(v) }

// SetFloat stores a float64 at full precision.
func (c Conf) SetFloat(key string, v float64) {
	c[key] = strconv.FormatFloat(v, 'g', -1, 64)
}

// SetInt64 stores an int64.
func (c Conf) SetInt64(key string, v int64) { c[key] = strconv.FormatInt(v, 10) }

// SetBool stores a bool.
func (c Conf) SetBool(key string, v bool) { c[key] = strconv.FormatBool(v) }
