package core

import "repro/internal/mapreduce"

// JobFactories returns the registry entries for every job this package
// defines, keyed by job name. Distributed workers install these (via
// rpcmr.RegisterJobs) so the master can ship jobs as (name, conf) pairs.
func JobFactories() map[string]func(mapreduce.Conf) *mapreduce.Job {
	return map[string]func(mapreduce.Conf) *mapreduce.Job{
		JobDcSample: DcSampleJob,
		JobBasicRho: BasicRhoJob,
		JobBasicAgg: basicRhoAggJob,
		JobBasicDel: BasicDeltaJob,
		JobBasicDAgg: func(conf mapreduce.Conf) *mapreduce.Job {
			return DeltaAggJob(JobBasicDAgg, conf)
		},
		JobLSHRho:    LSHRhoJob,
		JobLSHRhoAgg: LSHRhoAggJob,
		JobLSHDel:    LSHDeltaJob,
		JobLSHDelAgg: func(conf mapreduce.Conf) *mapreduce.Job {
			return DeltaAggJob(JobLSHDelAgg, conf)
		},
	}
}
