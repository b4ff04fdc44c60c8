// Package rpcmr is the distributed MapReduce engine: a master and a fleet
// of workers, executing the same Job values as the in-process engine.
// Control flows one way: workers call the master over net/rpc and nothing
// calls them back. The division of labour mirrors Hadoop 1.x (the system
// the reproduced paper ran on), where TaskTrackers heartbeat the
// JobTracker and each reply carries both task launches and job cleanup:
//
//   - the master owns job state, splits input (mapreduce.SplitInput, the
//     local engine's splitter), assigns map and reduce tasks to polling
//     workers under leases, and re-executes tasks whose worker disappears;
//     every poll reply names the live job, and a worker drops the stored
//     map outputs of every other job;
//   - workers execute tasks with mapreduce.ExecuteMapTask /
//     ExecuteReduceTask — the task bodies the local engine runs too — keep
//     their map outputs locally, and serve them to
//     reducers over a worker-to-worker streaming shuffle transport
//     (chunked binary frames — see transport.go), whose listener is a
//     worker's only socket;
//   - functions do not serialize, so workers rebuild jobs from a local
//     registry of job factories keyed by job name; everything else a job
//     needs ships in its Conf.
//
// The master implements mapreduce.Engine, so every algorithm in this
// repository (Basic-DDP, LSH-DDP, EDDPC, K-means) runs on a real cluster
// unchanged — see examples/quickstart -distributed. The master lives in the
// job's driver process (ddp / ddp knn -master-listen, or a program like
// examples/quickstart -distributed), which calls Run in-process; workers
// are the only remote parties. Job accounting lives in the dag.Session
// built on it; the master itself keeps History, one JobRecord per job, and
// serves Traces from it.
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
	MapTaskID int
	// ShuffleAddr is the holding worker's streaming shuffle listener.
	ShuffleAddr string
}

// GetTaskReply describes the assigned task (or Wait/Shutdown).
type GetTaskReply struct {
	Kind TaskKind
	// JobID names the live job on every reply, TaskWait included, and is 0
	// when no job is running: the worker keeps only that job's map outputs.
	JobID   int
	JobName string
	Conf    mapreduce.Conf
	TaskID  int
	// NumReduces applies to both kinds.
	NumReduces int
	// Split is the map task's input, cut by the master from the pairs the
	// driver passed to Run.
	Split []mapreduce.Pair
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

// JobFactory rebuilds a runnable Job from its shipped Conf. It is a type
// alias so plain factory maps (e.g. core.JobFactories()) pass through
// without conversion.
type JobFactory = func(conf mapreduce.Conf) *mapreduce.Job

var (
	registryMu sync.RWMutex
	registry   = map[string]JobFactory{}
)

// RegisterJobs installs a batch of factories under their job names.
// Workers must register every job they may be asked to run before starting.
// An already-registered name is skipped, so tests and binaries can wire
// overlapping sets safely.
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
