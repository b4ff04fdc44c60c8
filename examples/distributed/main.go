// Distributed end-to-end: boots a REAL MapReduce cluster — a master and
// four workers talking over TCP on loopback — and runs the full LSH-DDP
// pipeline on the cluster engine. The driver passes the input to each job
// as pairs, which the master splits across the workers. The science is
// verified against the in-process engine: results must match bit-for-bit.
//
// The same code works across machines: this program is the master, as
// `ddp -master-listen` is, and `ddp worker` runs standalone workers.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eddpc"
	"repro/internal/kmeansmr"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
)

func main() {
	ds := dataset.S2(42)

	// ---- MapReduce cluster: master + 4 workers over TCP ----
	rpcmr.RegisterJobs(core.JobFactories())
	rpcmr.RegisterJobs(eddpc.JobFactories())
	rpcmr.RegisterJobs(kmeansmr.JobFactories())
	rpcmr.RegisterJobs(knnjoin.JobFactories())

	master, err := rpcmr.NewMaster("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer master.Close()
	for i := 0; i < 4; i++ {
		w, err := rpcmr.StartWorker(master.Addr(), "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
	}
	fmt.Printf("mapreduce: master %s with %d workers\n\n", master.Addr(), master.WorkerCount())

	cfg := core.LSHConfig{
		Config: core.Config{
			Engine: master,
			Seed:   1,
			Log: func(format string, args ...interface{}) {
				fmt.Printf("  "+format+"\n", args...)
			},
		},
		Accuracy: 0.99, M: 10, Pi: 3,
	}
	fmt.Println("running LSH-DDP on the TCP cluster:")
	distRes, err := core.RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	peaks, _, err := distRes.Cluster(ds, core.SelectTopK(15))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster run: %d clusters in %.2fs, %.2f MB shuffled over TCP, %d distances\n",
		len(peaks), distRes.Stats.Wall.Seconds(),
		float64(distRes.Stats.ShuffleBytes)/(1<<20), distRes.Stats.DistanceComputations)

	// The logical shuffle volume above is the paper's metric; the wire
	// counter reports what the streaming transport actually moved between
	// workers (reducer-local partitions never touch the network, so the
	// wire volume is smaller).
	var wire int64
	for _, j := range distRes.Stats.Jobs {
		wire += j.Counters[mapreduce.CtrShuffleWireBytes]
	}
	fmt.Printf("wire traffic: %.2f MB (worker-to-worker streams)\n", float64(wire)/(1<<20))

	// Verify against the in-process engine: identical science.
	localCfg := cfg
	localCfg.Engine = &mapreduce.LocalEngine{}
	localCfg.Log = nil
	localRes, err := core.RunLSHDDP(context.Background(), ds, localCfg)
	if err != nil {
		log.Fatal(err)
	}
	for i := range localRes.Rho {
		if distRes.Rho[i] != localRes.Rho[i] || distRes.Delta[i] != localRes.Delta[i] {
			log.Fatalf("distributed result diverged at point %d: rho %v vs %v, delta %v (up %d) vs %v (up %d)",
				i, distRes.Rho[i], localRes.Rho[i],
				distRes.Delta[i], distRes.Upslope[i], localRes.Delta[i], localRes.Upslope[i])
		}
	}
	fmt.Println("verified: distributed results are bit-identical to the local engine")
}
