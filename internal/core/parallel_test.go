package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/obs"
)

// parallelGroups sums the dp.parallel.groups counter across a trace's jobs.
func parallelGroups(tr *obs.Trace) int64 {
	var n int64
	for _, j := range tr.Jobs() {
		n += j.Counters["dp.parallel.groups"]
	}
	return n
}

// TestLSHDDPParallelPathMatchesSerial runs the same pinned LSH-DDP
// configuration with the intra-partition parallel path off and on. With the
// cutoff kernel every result — ρ̂, δ̂, upslope, and the distance counter —
// must be bit-identical: parallel ρ merges integer sums and the δ merge
// reproduces the serial first-wins scan.
func TestLSHDDPParallelPathMatchesSerial(t *testing.T) {
	ds := dataset.Blobs("parallel-lsh", 900, 2, 4, 150, 3, 5)
	run := func(threshold, workers int) (*Result, int64) {
		tr := &obs.Trace{}
		cfg := LSHConfig{
			Config: Config{
				Engine: testEngine(), Dc: 2.5, Seed: 11, Trace: tr,
				ParallelThreshold: threshold, ParallelWorkers: workers,
			},
			M: 4, Pi: 2, W: 10,
		}
		res, err := RunLSHDDP(context.Background(), ds, cfg)
		if err != nil {
			t.Fatalf("threshold=%d: %v", threshold, err)
		}
		return res, parallelGroups(tr)
	}

	serial, sg := run(0, 0)
	if sg != 0 {
		t.Fatalf("serial run counted %d parallel groups", sg)
	}
	parallel, pg := run(64, 4)
	if pg == 0 {
		t.Fatal("parallel run engaged no groups; threshold too high for this data set")
	}
	if serial.Stats.DistanceComputations != parallel.Stats.DistanceComputations {
		t.Fatalf("distance computations differ: %d vs %d",
			serial.Stats.DistanceComputations, parallel.Stats.DistanceComputations)
	}
	for i := range serial.Rho {
		if math.Float64bits(serial.Rho[i]) != math.Float64bits(parallel.Rho[i]) {
			t.Fatalf("rho[%d]: serial %v, parallel %v", i, serial.Rho[i], parallel.Rho[i])
		}
		if math.Float64bits(serial.Delta[i]) != math.Float64bits(parallel.Delta[i]) {
			t.Fatalf("delta[%d]: serial %v, parallel %v", i, serial.Delta[i], parallel.Delta[i])
		}
		if serial.Upslope[i] != parallel.Upslope[i] {
			t.Fatalf("upslope[%d]: serial %d, parallel %d", i, serial.Upslope[i], parallel.Upslope[i])
		}
	}
}

// TestBasicDDPParallelPathExact runs Basic-DDP with the parallel path
// engaged and checks it still matches sequential DP exactly, including with
// the Gaussian kernel (whose parallel ρ partials may differ in ulps from
// the serial sum — the aggregation totals must still match the tolerance
// the repo's equivalence tests use everywhere).
func TestBasicDDPParallelPathExact(t *testing.T) {
	ds := dataset.Blobs("parallel-basic", 600, 3, 4, 100, 4, 7)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref := exactReference(t, ds, dc)

	res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config: Config{
			Engine: testEngine(), Dc: dc,
			ParallelThreshold: 100, ParallelWorkers: 3,
		},
		BlockSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Rho {
		if res.Rho[i] != ref.Rho[i] {
			t.Fatalf("rho[%d] = %v, want %v", i, res.Rho[i], ref.Rho[i])
		}
		if math.Abs(res.Delta[i]-ref.Delta[i]) > 1e-9 {
			t.Fatalf("delta[%d] = %v, want %v", i, res.Delta[i], ref.Delta[i])
		}
		if res.Upslope[i] != ref.Upslope[i] {
			t.Fatalf("upslope[%d] = %d, want %d", i, res.Upslope[i], ref.Upslope[i])
		}
	}

	gauss, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config: Config{
			Engine: testEngine(), Dc: dc, Kernel: dp.KernelGaussian,
			ParallelThreshold: 100, ParallelWorkers: 3,
		},
		BlockSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	gref, err := dp.Compute(ds, dc, dp.Options{Kernel: dp.KernelGaussian})
	if err != nil {
		t.Fatal(err)
	}
	for i := range gref.Rho {
		if diff := math.Abs(gauss.Rho[i] - gref.Rho[i]); diff > 1e-9*(1+math.Abs(gref.Rho[i])) {
			t.Fatalf("gaussian rho[%d] = %v, want %v", i, gauss.Rho[i], gref.Rho[i])
		}
	}
}

// TestBasicDDPParallelDecisionOnGroupSize pins where the parallel-or-compact
// decision is made: once, inside the kernel entry, on the rows of the whole
// reducer group — local block plus visitors, the rows the pool deals tile
// rows over. With BlockSize < ParallelThreshold ≤ 2·BlockSize reducer 0 (its
// own block only) stays under the threshold and runs the compact scan over
// its triangle, and every other reducer crosses it and runs the worker pool
// over triangle and cross block alike. Both counters depend on Conf and group
// sizes only; that the counted groups really ran the pool over their cross
// tiles is pinned at the kernel (kernels.TestPlanDecidesOnTheWholeGroup).
func TestBasicDDPParallelDecisionOnGroupSize(t *testing.T) {
	const n, block = 600, 200
	ds := dataset.Blobs("parallel-decision", n, 3, 4, 100, 4, 7)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref := exactReference(t, ds, dc)
	serial, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config: Config{Engine: testEngine(), Dc: dc}, BlockSize: block,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr := &obs.Trace{}
	res, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config: Config{
			Engine: testEngine(), Dc: dc, Trace: tr, ScanPrecision: "f32",
			ParallelThreshold: block + block/2, ParallelWorkers: 3,
		},
		BlockSize: block,
	})
	if err != nil {
		t.Fatal(err)
	}
	var compact int64
	for _, j := range tr.Jobs() {
		compact += j.Counters["kernels.compact.evals"]
	}
	// Two partitioned jobs (ρ, δ), three reducers each.
	if got, want := parallelGroups(tr), int64(2*(n/block-1)); got != want {
		t.Errorf("dp.parallel.groups = %d, want %d: every reducer but block 0's", got, want)
	}
	if want := int64(2 * block * (block - 1) / 2); compact != want {
		t.Errorf("kernels.compact.evals = %d, want %d: block 0's triangle in each job", compact, want)
	}
	if res.Stats.DistanceComputations != serial.Stats.DistanceComputations {
		t.Errorf("distance computations %d, serial %d", res.Stats.DistanceComputations, serial.Stats.DistanceComputations)
	}
	for i := range ref.Rho {
		if res.Rho[i] != ref.Rho[i] || math.Float64bits(res.Rho[i]) != math.Float64bits(serial.Rho[i]) {
			t.Fatalf("rho[%d] = %v, exact %v, serial %v", i, res.Rho[i], ref.Rho[i], serial.Rho[i])
		}
		if math.Float64bits(res.Delta[i]) != math.Float64bits(serial.Delta[i]) || math.Abs(res.Delta[i]-ref.Delta[i]) > 1e-9 {
			t.Fatalf("delta[%d] = %v, exact %v, serial %v", i, res.Delta[i], ref.Delta[i], serial.Delta[i])
		}
		if res.Upslope[i] != ref.Upslope[i] || res.Upslope[i] != serial.Upslope[i] {
			t.Fatalf("upslope[%d] = %d, exact %d, serial %d", i, res.Upslope[i], ref.Upslope[i], serial.Upslope[i])
		}
	}
}
