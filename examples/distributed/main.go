// Distributed end-to-end: boots a REAL MapReduce cluster — a master and
// four workers talking over TCP on loopback — plus a mini-DFS (namenode +
// three datanodes), stores the input there, and runs the full LSH-DDP
// pipeline on the cluster engine. The science is verified against the
// in-process engine: results must match bit-for-bit.
//
// The same code works across machines: this program is the master, as
// `ddp -master-listen` is, and cmd/mrd runs standalone worker, namenode and
// datanode daemons.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dfs"
	"repro/internal/eddpc"
	"repro/internal/kmeansmr"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
)

func main() {
	// ---- Mini-DFS: namenode + 3 datanodes, replication 2 ----
	// Fault-tolerance timings are tightened from the daemon defaults so the
	// re-replication demo at the end converges in under a second.
	nn, err := dfs.NewNameNodeOpts("127.0.0.1:0", dfs.NameNodeOptions{
		Replication:       2,
		HeartbeatTimeout:  300 * time.Millisecond,
		ReplicateInterval: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nn.Close()
	var dataNodes []*dfs.DataNode
	for i := 0; i < 3; i++ {
		dn, err := dfs.StartDataNodeOpts(nn.Addr(), "127.0.0.1:0", dfs.DataNodeOptions{
			HeartbeatInterval: 60 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		dataNodes = append(dataNodes, dn)
		defer dn.Close()
	}
	fsClient, err := dfs.NewClient(nn.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer fsClient.Close()
	fsClient.BlockSize = 64 << 10
	fmt.Printf("dfs: namenode %s with 3 datanodes (replication 2)\n", nn.Addr())

	// Generate the input and store it in the DFS as CSV, the way a real
	// deployment would stage data in HDFS.
	ds := dataset.S2(42)
	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, ds); err != nil {
		log.Fatal(err)
	}
	if err := fsClient.Put("input/s2.csv", csvBuf.Bytes()); err != nil {
		log.Fatal(err)
	}
	info, err := fsClient.Stat("input/s2.csv")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dfs: stored input/s2.csv — %d bytes in %d replicated blocks\n", info.Size, info.Blocks)

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

	// Read the input back from the DFS and run LSH-DDP on the cluster.
	raw, err := fsClient.Get("input/s2.csv")
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := dataset.ReadCSV(bytes.NewReader(raw), "s2-from-dfs", true)
	if err != nil {
		log.Fatal(err)
	}

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
	distRes, err := core.RunLSHDDP(context.Background(), loaded, cfg)
	if err != nil {
		log.Fatal(err)
	}
	peaks, _, err := distRes.Cluster(loaded, core.SelectTopK(15))
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
	localRes, err := core.RunLSHDDP(context.Background(), loaded, localCfg)
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

	// ---- Storage fault tolerance demo: kill a datanode and watch the
	// namenode heal the input file back to full replication. ----
	fmt.Println("\nkilling one datanode; waiting for re-replication…")
	dataNodes[0].Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ctrs := nn.Counters()
		if ctrs["dfs.rereplications"] > 0 && ctrs["dfs.blocks.underreplicated"] == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if raw2, err := fsClient.Get("input/s2.csv"); err != nil || !bytes.Equal(raw2, raw) {
		log.Fatalf("input no longer intact after datanode death: %v", err)
	}
	fmt.Println("input re-read bit-identical from the surviving replicas")
	fmt.Println("dfs counters:")
	for _, name := range []string{"dfs.heartbeats", "dfs.nodes.dead", "dfs.rereplications", "dfs.blocks.underreplicated", "dfs.blocks.corrupt"} {
		fmt.Printf("  %-28s %d\n", name, nn.Counters()[name])
	}
}
