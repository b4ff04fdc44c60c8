package core

import (
	"fmt"

	"repro/internal/dp"
	"repro/internal/kernels"
	"repro/internal/mapreduce"
)

// Kernel plumbing: the reproduced paper uses the cutoff kernel throughout,
// but its conclusion notes LSH-DDP should extend to DP variants. The
// Gaussian kernel from the original DP paper is such a variant, and both
// distributed pipelines support it: ρ contributions remain non-negative
// and additive, so Basic-DDP's partial sums stay exact and LSH-DDP's local
// estimates remain underestimates — Theorem 1's max aggregation stays
// valid.
//
// The pairwise evaluation itself lives in internal/kernels, and so does the
// choice between its serial, compact and parallel scans; this file only
// moves the kernel choice, the scan precision and the intra-partition
// parallelism knobs through job Conf so distributed workers rebuild them
// from (name, conf) alone, and publishes what a scan reports as counters.

const (
	confKernel       = "ddp.kernel"
	confParThreshold = "ddp.parallel.threshold"
	confParWorkers   = "ddp.parallel.workers"
)

func kernelFromConf(conf mapreduce.Conf) kernels.Kernel {
	dc := conf.GetFloat(confDc, 0)
	return kernels.Kernel{
		Gaussian: conf.GetInt(confKernel, int(dp.KernelCutoff)) == int(dp.KernelGaussian),
		Dc2:      dc * dc,
	}
}

func setKernelConf(conf mapreduce.Conf, k dp.Kernel) {
	conf.SetInt(confKernel, int(k))
}

// setParallelConf publishes the intra-partition parallelism knobs of cfg.
func setParallelConf(conf mapreduce.Conf, cfg *Config) {
	conf.SetInt(confParThreshold, cfg.ParallelThreshold)
	conf.SetInt(confParWorkers, cfg.ParallelWorkers)
}

// setScanConf publishes the reducer scan precision (mr.scan.precision).
func setScanConf(conf mapreduce.Conf, cfg *Config) {
	if cfg.ScanPrecision != "" {
		conf[kernels.ConfScanPrecision] = cfg.ScanPrecision
	}
}

// SetScanConf publishes how cfg's reducers scan their pairs: the
// intra-partition parallelism knobs and the scan precision.
func SetScanConf(conf mapreduce.Conf, cfg *Config) {
	setParallelConf(conf, cfg)
	setScanConf(conf, cfg)
}

// ScanFromConf rebuilds what SetScanConf published, for every ρ / δ reducer
// of this repository (EDDPC's included). Validation happens at pipeline
// entry (checkScanPrecision); an unknown precision reaching a worker falls
// back to the exact f64 kernels.
func ScanFromConf(conf mapreduce.Conf) kernels.Scan {
	return kernels.Scan{
		F32: conf[kernels.ConfScanPrecision] == kernels.ScanF32,
		Parallel: kernels.Parallel{
			Threshold: conf.GetInt(confParThreshold, 0),
			Workers:   conf.GetInt(confParWorkers, 0),
		},
	}
}

// CountScan publishes what one reduce call's kernels.Rho or kernels.Delta
// reported: its distance evaluations, whether the group ran the worker pool,
// and the compact scan's evaluations and exact re-checks.
func CountScan(ctx *mapreduce.TaskContext, ran kernels.Ran) {
	ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(ran.Pairs)
	if ran.Parallel {
		ctx.Counters.Cell(mapreduce.CtrParallelGroups).Add(1)
	}
	if ran.Compact {
		ctx.Counters.Cell(mapreduce.CtrCompactEvals).Add(ran.Pairs)
		ctx.Counters.Cell(mapreduce.CtrCompactRechecks).Add(ran.Rechecks)
	}
}

// checkScanPrecision rejects knob values the reducers do not support.
func checkScanPrecision(cfg *Config) error {
	if !kernels.ValidScanPrecision(cfg.ScanPrecision) {
		return fmt.Errorf("core: unknown ScanPrecision %q (reducers support \"\", %q, %q; %q is serving-only)",
			cfg.ScanPrecision, kernels.ScanF64, kernels.ScanF32, kernels.ScanQ8)
	}
	return nil
}
