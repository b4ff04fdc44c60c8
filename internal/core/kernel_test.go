package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
)

func TestBasicDDPGaussianKernelMatchesSequential(t *testing.T) {
	ds := dataset.Blobs("gauss-basic", 300, 3, 3, 80, 3, 19)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref, err := dp.Compute(ds, dc, dp.Options{Kernel: dp.KernelGaussian})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config:    Config{Engine: testEngine(), Dc: dc, Kernel: dp.KernelGaussian},
		BlockSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Rho {
		if math.Abs(res.Rho[i]-ref.Rho[i]) > 1e-6*(1+ref.Rho[i]) {
			t.Fatalf("gaussian rho[%d] = %v, want %v", i, res.Rho[i], ref.Rho[i])
		}
		if math.Abs(res.Delta[i]-ref.Delta[i]) > 1e-9 {
			t.Fatalf("gaussian delta[%d] = %v, want %v", i, res.Delta[i], ref.Delta[i])
		}
	}
}

func TestLSHDDPGaussianKernelUnderestimates(t *testing.T) {
	ds := dataset.Blobs("gauss-lsh", 400, 3, 4, 80, 3, 23)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref, err := dp.Compute(ds, dc, dp.Options{Kernel: dp.KernelGaussian})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config:   Config{Engine: testEngine(), Dc: dc, Seed: 5, Kernel: dp.KernelGaussian},
		Accuracy: 0.95, M: 5, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gaussian contributions are positive, so every local estimate — and
	// therefore the max — underestimates the exact smooth density.
	for i := range ref.Rho {
		if res.Rho[i] > ref.Rho[i]+1e-9 {
			t.Fatalf("gaussian rho_hat[%d] = %v exceeds exact %v", i, res.Rho[i], ref.Rho[i])
		}
	}
	// And the estimates should still be close on well-clustered data.
	var errSum, norm float64
	for i := range ref.Rho {
		errSum += math.Abs(res.Rho[i] - ref.Rho[i])
		norm += ref.Rho[i]
	}
	// The Gaussian kernel has unbounded support, so cross-partition tail
	// mass is systematically missed; the bar is accordingly lower than for
	// the cutoff kernel.
	if tau2 := 1 - errSum/norm; tau2 < 0.8 {
		t.Fatalf("gaussian tau2 = %v, want >= 0.8", tau2)
	}
}

func TestGaussianKernelProducesSmoothDensities(t *testing.T) {
	// Under the cutoff kernel many points tie (integer counts); the
	// Gaussian kernel breaks almost all ties, so the absolute-peak
	// tie-break matters much less. Sanity-check both run and that
	// densities are non-integral under Gaussian.
	ds := dataset.Blobs("gauss-smooth", 200, 2, 2, 50, 2, 29)
	res, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config:   Config{Engine: testEngine(), Seed: 1, Kernel: dp.KernelGaussian},
		Accuracy: 0.95, M: 5, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fractional := 0
	for _, r := range res.Rho {
		if r != math.Trunc(r) {
			fractional++
		}
	}
	if fractional < len(res.Rho)/2 {
		t.Fatalf("only %d/%d gaussian densities are fractional", fractional, len(res.Rho))
	}
}
