package core

import (
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
// The pairwise evaluation itself lives in internal/kernels; this file only
// moves the kernel choice through job Conf so distributed workers rebuild it
// from (name, conf) alone.

const confKernel = "ddp.kernel"

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
