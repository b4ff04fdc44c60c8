// Package rpcmr is the distributed MapReduce engine: a master and a fleet
// of workers communicating over net/rpc, executing the same Job values as
// the in-process engine. The division of labour mirrors Hadoop 1.x (the
// system the reproduced paper ran on):
//
//   - the master owns job state, splits input (mapreduce.SplitInput, the
//     local engine's splitter), assigns map and reduce tasks to polling
//     workers under leases, and re-executes tasks whose worker disappears;
//   - workers execute tasks with mapreduce.ExecuteMapTask /
//     ExecuteReduceTask — the task bodies the local engine runs too — keep
//     their map outputs locally, and serve them to
//     reducers over a worker-to-worker streaming shuffle transport
//     (chunked binary frames with optional compression — see transport.go);
//   - functions do not serialize, so workers rebuild jobs from a local
//     registry of job factories keyed by job name; everything else a job
//     needs ships in its Conf.
//
// The master implements mapreduce.Engine, so every algorithm in this
// repository (Basic-DDP, LSH-DDP, EDDPC, K-means) runs on a real cluster
// unchanged — see examples/distributed. Job accounting lives in the
// dag.Session built on it; the master itself keeps History, one JobRecord
// per job for the operator's job-tracker view, and serves Traces from it.
package rpcmr

import (
	"fmt"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// TaskKind tells a polling worker what to do next.
type TaskKind int

const (
	// TaskWait means no runnable task right now; poll again shortly.
	TaskWait TaskKind = iota
	// TaskMap carries an input split to map.
	TaskMap
	// TaskReduce carries the partition index and map-output locations.
	TaskReduce
	// TaskShutdown tells the worker to exit its loop.
	TaskShutdown
)

// RegisterArgs / RegisterReply: worker sign-on.
type RegisterArgs struct {
	// Addr is the worker's RPC address (cleanup).
	Addr string
	// ShuffleAddr is the worker's streaming shuffle listener, host:port.
	// Required: Register rejects a worker that advertises none, since
	// reducers have no other way to reach its map outputs.
	ShuffleAddr string
}

// RegisterReply returns the master-assigned worker id.
type RegisterReply struct {
	WorkerID int
}

// GetTaskArgs / GetTaskReply: task polling.
type GetTaskArgs struct {
	WorkerID int
}

// MapLocation names one completed map task's data.
type MapLocation struct {
	MapTaskID  int
	WorkerAddr string
	// ShuffleAddr is the holding worker's streaming shuffle listener.
	ShuffleAddr string
}

// GetTaskReply describes the assigned task (or Wait/Shutdown).
type GetTaskReply struct {
	Kind    TaskKind
	JobID   int
	JobName string
	Conf    mapreduce.Conf
	TaskID  int
	// NumReduces applies to both kinds.
	NumReduces int
	// Split is the map task's inline input (when the master shipped the
	// data itself).
	Split []mapreduce.Pair
	// DFSNameNode/DFSPart describe a DFS-staged input instead: the worker
	// reads the part file directly from the distributed file system,
	// Hadoop-style, so big inputs never pass through the master.
	DFSNameNode string
	DFSPart     string
	// Maps lists where to fetch each map task's partition (reduce tasks).
	Maps []MapLocation
}

// CompleteArgs / CompleteReply: task completion report.
type CompleteArgs struct {
	WorkerID int
	JobID    int
	Kind     TaskKind
	TaskID   int
	// Output is the reduce task's result.
	Output []mapreduce.Pair
	// Counters is the task's counter snapshot.
	Counters map[string]int64
	// Spans carries the task's phase spans (worker-side wall times and
	// volumes); the master merges them into the job's trace with the
	// reporting worker attributed on each span.
	Spans []obs.Span
	// Err is a non-empty string when the task failed.
	Err string
	// FailedMaps lists map tasks whose data could not be fetched; the
	// master re-executes them and re-queues this reduce task.
	FailedMaps []int
}

// CompleteReply acknowledges a completion report.
type CompleteReply struct{}

// CleanupArgs / CleanupReply: drop a finished job's intermediate data.
type CleanupArgs struct {
	JobID int
}

// CleanupReply acknowledges a cleanup.
type CleanupReply struct{}

// JobFactory rebuilds a runnable Job from its shipped Conf. It is a type
// alias so plain factory maps (e.g. core.JobFactories()) pass through
// without conversion.
type JobFactory = func(conf mapreduce.Conf) *mapreduce.Job

var (
	registryMu sync.RWMutex
	registry   = map[string]JobFactory{}
)

// RegisterJob installs a factory under a job name. Workers must register
// every job they may be asked to run before starting; registering the same
// name twice panics to catch wiring mistakes early.
func RegisterJob(name string, f JobFactory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("rpcmr: job %q registered twice", name))
	}
	registry[name] = f
}

// RegisterJobs installs a batch of factories, skipping already-registered
// names (so tests and binaries can wire overlapping sets safely).
func RegisterJobs(m map[string]JobFactory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	for name, f := range m {
		if _, dup := registry[name]; !dup {
			registry[name] = f
		}
	}
}

func lookupJob(name string) (JobFactory, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("rpcmr: job %q not registered on this worker", name)
	}
	return f, nil
}
