package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/eddpc"
	"repro/internal/evalmetrics"
	"repro/internal/kmeansmr"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
)

// TestExactAlgorithmsAgreeBitForBit cross-checks all three exact paths —
// sequential DP, Basic-DDP, EDDPC — on the same data.
func TestExactAlgorithmsAgreeBitForBit(t *testing.T) {
	ds := dataset.KDD(1500, 7)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	eng := &mapreduce.LocalEngine{Parallelism: 4}

	seq, err := dp.Compute(ds, dc)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := core.RunBasicDDP(context.Background(), ds, core.BasicConfig{
		Config: core.Config{Engine: eng, Dc: dc},
	})
	if err != nil {
		t.Fatal(err)
	}
	ed, err := eddpc.Run(context.Background(), ds, eddpc.Config{
		Config: core.Config{Engine: eng, Dc: dc, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Rho {
		if basic.Rho[i] != seq.Rho[i] || ed.Rho[i] != seq.Rho[i] {
			t.Fatalf("rho[%d]: seq %v basic %v eddpc %v", i, seq.Rho[i], basic.Rho[i], ed.Rho[i])
		}
		if math.Abs(basic.Delta[i]-seq.Delta[i]) > 1e-9 || math.Abs(ed.Delta[i]-seq.Delta[i]) > 1e-9 {
			t.Fatalf("delta[%d]: seq %v basic %v eddpc %v", i, seq.Delta[i], basic.Delta[i], ed.Delta[i])
		}
	}
}

// TestFullDistributedPipeline is the end-to-end story: run LSH-DDP on a TCP
// MapReduce cluster, cluster the result, validate quality against ground
// truth, and detect halos on the same cluster.
func TestFullDistributedPipeline(t *testing.T) {
	ds := dataset.Blobs("integration", 1200, 4, 5, 300, 3, 9)

	// MapReduce cluster: master + 3 workers.
	rpcmr.RegisterJobs(core.JobFactories())
	rpcmr.RegisterJobs(core.HaloJobFactories())
	rpcmr.RegisterJobs(eddpc.JobFactories())
	rpcmr.RegisterJobs(kmeansmr.JobFactories())
	rpcmr.RegisterJobs(knnjoin.JobFactories())
	master, err := rpcmr.NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	var workers []*rpcmr.Worker
	for i := 0; i < 3; i++ {
		w, err := rpcmr.StartWorker(master.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()

	res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
		Config:   core.Config{Engine: master, Seed: 3},
		Accuracy: 0.99, M: 8, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	peaks, labels, err := res.Cluster(ds, core.SelectTopK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 5 {
		t.Fatalf("selected %d peaks", len(peaks))
	}
	ari, err := evalmetrics.ARI(ds.Labels, evalmetrics.IntLabels(labels))
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Fatalf("distributed pipeline ARI = %v", ari)
	}

	// Halo detection on the same cluster engine.
	halo, err := core.RunLSHHalo(context.Background(), ds, res, labels, core.LSHConfig{
		Config:   core.Config{Engine: master, Seed: 3},
		Accuracy: 0.99, M: 8, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(halo.Halo) != ds.N() {
		t.Fatalf("halo flags = %d", len(halo.Halo))
	}
}

// TestLSHDDPApproximatesExactOnAllRegistrySets sweeps every Table II data
// set (shrunk) and checks τ₂ stays high at A=0.99.
func TestLSHDDPApproximatesExactOnAllRegistrySets(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep in -short mode")
	}
	eng := &mapreduce.LocalEngine{Parallelism: 4}
	for _, spec := range dataset.Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ds := spec.Gen(11)
			if ds.N() > 2500 {
				ds.Points = ds.Points[:2500]
				if ds.Labels != nil {
					ds.Labels = ds.Labels[:2500]
				}
			}
			dc := dp.CutoffByPercentile(ds, 0.02, 1)
			exact, err := dp.Compute(ds, dc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
				Config:   core.Config{Engine: eng, Dc: dc, Seed: 5},
				Accuracy: 0.99, M: 10, Pi: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			tau2, err := evalmetrics.Tau2(exact.Rho, res.Rho)
			if err != nil {
				t.Fatal(err)
			}
			if tau2 < 0.95 {
				t.Fatalf("tau2 = %v on %s", tau2, spec.Name)
			}
		})
	}
}

// TestDistributedKMeansOnCluster runs kmeansmr on the rpcmr engine.
func TestDistributedKMeansOnCluster(t *testing.T) {
	rpcmr.RegisterJobs(kmeansmr.JobFactories())
	master, err := rpcmr.NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	var workers []*rpcmr.Worker
	for i := 0; i < 2; i++ {
		w, err := rpcmr.StartWorker(master.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	ds := dataset.Blobs("kmr-rpc", 500, 3, 3, 400, 2, 13)
	res, err := kmeansmr.Run(context.Background(), ds, kmeansmr.Config{
		Engine: master, K: 3, MaxIter: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := evalmetrics.ARI(ds.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Fatalf("distributed k-means ARI = %v", ari)
	}
}
