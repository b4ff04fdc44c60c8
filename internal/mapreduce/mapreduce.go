// Package mapreduce is a from-scratch MapReduce framework: typed jobs with
// user Map / Combine / Reduce functions, a hash-partitioned sort/group
// shuffle held in memory, byte-accurate cost counters, and a parallel
// in-process engine. A companion package (rpcmr) runs the same jobs on a
// real master/worker cluster over net/rpc.
//
// The layering is Engine → dag.Session → pipeline. An Engine runs one job
// (Run); LocalEngine and rpcmr.Master are the two, and both split input with
// SplitInput and execute every task with ExecuteMapTask / ExecuteReduceTask,
// so a job behaves the same on either by construction. Running a pipeline's
// jobs in order, and keeping the record of what ran, is the dag package's
// business — this package has no job ledger.
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
	"sync"
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

// hashPartition maps an intermediate key to its reduce partition in
// [0, numReduces) (FNV-1a, like Hadoop's hash partitioner in spirit).
func hashPartition(key string, numReduces int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(numReduces))
}

// IDKey renders a point ID as the reduce key the per-point aggregation
// jobs group by: its four big-endian bytes with the sign bit flipped, so
// that keys sort in ID order, negative IDs first. The values under it need
// not repeat the ID; ParseIDKey reads it back.
func IDKey(id int32) string {
	u := uint32(id) ^ 1<<31
	return string([]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
}

// ParseIDKey returns the ID of an IDKey key, refusing any key that is not
// four bytes long.
func ParseIDKey(key string) (int32, error) {
	if len(key) != 4 {
		return 0, fmt.Errorf("mapreduce: id key %x is %d bytes, want 4", key, len(key))
	}
	u := uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
	return int32(u ^ 1<<31), nil
}

// SortByIDKey returns the records of outs, every one keyed by IDKey, in a new
// slice grouped by key in ascending key order. It is stable: within a key
// the records keep the argument order, then their order within it. An
// aggregation job reads its input this way so that SplitInput's contiguous
// map splits hold each key's records together and its combiner folds them
// into one shuffled record per key (two for a key a split boundary cuts).
// It runs in O(n), one or two 16-bit counting passes, and reorders no slice
// of outs: a job's output is read-only. A key that is not four bytes long
// is an error.
func SortByIDKey(outs ...[]Pair) ([]Pair, error) {
	n := 0
	for _, o := range outs {
		n += len(o)
	}
	// A record is its key's four bytes above its position in the
	// concatenation of outs, which the final gather reads back.
	recs := make([]uint64, 0, n)
	for _, o := range outs {
		for _, p := range o {
			id, err := ParseIDKey(p.Key)
			if err != nil {
				return nil, err
			}
			recs = append(recs, uint64(uint32(id)^1<<31)<<32|uint64(len(recs)))
		}
	}
	if n == 0 {
		return nil, nil
	}
	tmp := make([]uint64, n)
	count := make([]int, 1<<16)
	for shift := 32; shift < 64; shift += 16 {
		clear(count)
		for _, r := range recs {
			count[r>>shift&0xffff]++
		}
		if count[recs[0]>>shift&0xffff] == n {
			continue // one digit: the pass would move nothing
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, r := range recs {
			d := r >> shift & 0xffff
			tmp[count[d]] = r
			count[d]++
		}
		recs, tmp = tmp, recs
	}
	grouped := make([]Pair, n)
	for j, r := range recs {
		at := int(uint32(r))
		o := 0
		for at >= len(outs[o]) {
			at -= len(outs[o])
			o++
		}
		grouped[j] = outs[o][at]
	}
	return grouped, nil
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

// SetInt stores an integer.
func (c Conf) SetInt(key string, v int) { c[key] = strconv.Itoa(v) }

// SetFloat stores a float64 at full precision.
func (c Conf) SetFloat(key string, v float64) {
	c[key] = strconv.FormatFloat(v, 'g', -1, 64)
}

// SetInt64 stores an int64.
func (c Conf) SetInt64(key string, v int64) { c[key] = strconv.FormatInt(v, 10) }

// ConfOnce returns a job instance's resolver for side data shipped in its
// Conf (pivots, centroids, a filter table): the first call decodes it, and
// every later call — one per record — returns the first call's value and
// error through a sync.Once fast path. Build one in the job's constructor, so
// the decoded value lives exactly as long as the job instance; a worker
// builds one instance per task and keeps nothing after it.
func ConfOnce[T any](decode func(Conf) (T, error)) func(Conf) (T, error) {
	var once sync.Once
	var v T
	var err error
	return func(conf Conf) (T, error) {
		once.Do(func() { v, err = decode(conf) })
		return v, err
	}
}
