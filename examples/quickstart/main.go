// Quickstart: cluster a synthetic data set with LSH-DDP in a dozen lines.
//
// Run with:
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -trace trace.jsonl      # + job trace
//	go run ./examples/quickstart -distributed            # 3-worker cluster
//
// The -distributed flag runs the exact same pipeline on an in-process
// rpcmr cluster (master + 3 workers over real RPC) through the same
// mapreduce.Engine interface — nothing in the algorithm changes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
)

func main() {
	traceOut := flag.String("trace", "", "write a JSONL job trace to this file (and print the phase tree)")
	distributed := flag.Bool("distributed", false, "run on an in-process 3-worker rpcmr cluster instead of the local engine")
	flag.Parse()

	// A 2-D data set of 2000 points in 5 Gaussian clusters.
	ds := dataset.Blobs("quickstart", 2000, 2, 5, 200, 4, 42)

	cfg := core.Config{Seed: 1}

	// Pick the engine: in-process by default, or a real master + 3 workers
	// speaking net/rpc when -distributed is set.
	if *distributed {
		master, shutdown, err := startCluster(3)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		cfg.Engine = master
		fmt.Printf("engine: rpcmr cluster with %d workers\n", master.WorkerCount())
	} else {
		fmt.Println("engine: local (in-process)")
	}

	trace := &obs.Trace{}
	cfg.Trace = trace

	// Run LSH-DDP with the paper's recommended parameters: expected
	// accuracy A=0.99, M=10 hash layouts, π=3 functions per layout. The
	// cutoff distance d_c and the hash width w are derived automatically.
	res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
		Config:   cfg,
		Accuracy: 0.99,
		M:        10,
		Pi:       3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Centralized step: pick the 5 most peak-like points on the decision
	// graph and assign every point to its density peak.
	peaks, labels, err := res.Cluster(ds, core.SelectTopK(5))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("clustered %d points into %d clusters\n", ds.N(), len(peaks))
	fmt.Printf("parameters: dc=%.4g w=%.4g (A=0.99, M=%d, pi=%d)\n",
		res.Stats.Dc, res.Stats.W, res.Stats.M, res.Stats.Pi)
	fmt.Printf("cost: %.3fs wall, %.2f MB shuffled, %d distance computations\n",
		res.Stats.Wall.Seconds(), float64(res.Stats.ShuffleBytes)/(1<<20), res.Stats.DistanceComputations)

	// The trace's shuffle spans account exactly the bytes the shuffle
	// counter measures — the invariant that makes per-phase attribution
	// trustworthy on either engine.
	shuffleSpanBytes := obs.Totals(trace.Jobs())[obs.PhaseShuffle].Bytes
	fmt.Printf("trace check: shuffle span bytes = %d, shuffle.bytes counter = %d\n",
		shuffleSpanBytes, res.Stats.ShuffleBytes)
	if shuffleSpanBytes != res.Stats.ShuffleBytes {
		log.Fatal("trace invariant violated: shuffle span bytes != counter")
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s; phase tree:\n", *traceOut)
		trace.WriteTree(os.Stdout)
	}

	sizes := make(map[int32]int)
	for _, l := range labels {
		sizes[l]++
	}
	for c, p := range peaks {
		fmt.Printf("cluster %d: peak point %4d at %v, %d members\n",
			c, p, ds.Points[p].Pos, sizes[int32(c)])
	}

	// How well did we do against the generator's ground truth?
	agree := 0
	for c := range peaks {
		counts := map[int]int{}
		for i, l := range labels {
			if int(l) == c {
				counts[ds.Labels[i]]++
			}
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		agree += best
	}
	fmt.Printf("purity vs ground truth: %.4f\n", float64(agree)/float64(ds.N()))
}

// startCluster boots an in-process master plus n workers and waits for
// them to register. The workers execute jobs rebuilt from the shared
// factory registry, exactly as separate `ddp worker` processes would.
func startCluster(n int) (*rpcmr.Master, func(), error) {
	rpcmr.RegisterJobs(core.JobFactories())
	master, err := rpcmr.NewMaster("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	var workers []*rpcmr.Worker
	shutdown := func() {
		for _, w := range workers {
			w.Close()
		}
		master.Close()
	}
	for i := 0; i < n; i++ {
		w, err := rpcmr.StartWorker(master.Addr(), "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		workers = append(workers, w)
	}
	if err := master.WaitWorkers(n, 10*time.Second); err != nil {
		shutdown()
		return nil, nil, err
	}
	return master, shutdown, nil
}
