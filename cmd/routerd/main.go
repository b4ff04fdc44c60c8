// Command routerd fronts a sharded clusterd fleet: it loads the fleet.json
// manifest fleetctl wrote, hashes each incoming query's LSH bucket keys on
// the same consistent-hash ring the partitioner used, and scatter-gathers
// the shard-internal /fleet/assign calls to only the shards owning those
// buckets. Merged answers are bit-identical to a single clusterd serving
// the full model; the public /assign contract (request shape, validation
// errors, 429/500 semantics, response bytes) is exactly clusterd's.
//
// Usage:
//
//	routerd -manifest fleetdir/fleet.json \
//	        -shards "host1:8080|host1b:8080,host2:8080" -listen :8090
//
// -shards lists replicas per shard: shards are comma-separated in ring
// order, replicas of one shard pipe-separated. At startup every reachable
// replica must report the shard id its position names. Requests
// round-robin over a shard's alive replicas, hedge to a second replica
// after the shard's observed p99 latency, and fail over on transport
// errors. A background prober marks a replica dead after 5 s without a
// successful /healthz and revives it when probes succeed again.
//
// Endpoints:
//
//	POST /assign  exactly clusterd's contract, served fleet-wide
//	GET  /healthz router liveness
//	GET  /statsz  fleet.* counters, per-replica liveness, and a rollup
//	              summing serve.* counters across every reachable replica
//
// SIGINT/SIGTERM drain and exit. See OPERATIONS.md "Running a fleet".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	var (
		manifest = flag.String("manifest", "", "fleet.json written by fleetctl partition (required)")
		shards   = flag.String("shards", "", "replica addresses: shards comma-separated in ring order, replicas of a shard pipe-separated (required)")
		listen   = flag.String("listen", ":8090", "HTTP listen address")
		verbose  = flag.Bool("v", false, "log router events")
	)
	flag.Parse()
	if *manifest == "" || *shards == "" {
		fmt.Fprintln(os.Stderr, "routerd: -manifest and -shards are required")
		flag.Usage()
		os.Exit(2)
	}

	mf, err := fleet.LoadManifest(*manifest)
	fatal(err)
	var replicaSets [][]string
	for _, shard := range strings.Split(*shards, ",") {
		var reps []string
		for _, addr := range strings.Split(shard, "|") {
			if a := strings.TrimSpace(addr); a != "" {
				reps = append(reps, a)
			}
		}
		replicaSets = append(replicaSets, reps)
	}

	cfg := fleet.RouterConfig{Manifest: mf, Shards: replicaSets}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	router, err := fleet.NewRouter(cfg)
	fatal(err)

	check, cancelCheck := context.WithTimeout(context.Background(), 10*time.Second)
	fatal(router.CheckShards(check))
	cancelCheck()
	fatal(router.Start(*listen))
	fmt.Fprintf(os.Stderr, "routerd: routing %d shards on %s (manifest %s: %q, %d points, M=%d)\n",
		mf.Shards, router.Addr(), *manifest, mf.Name, mf.N, mf.M)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "routerd: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fatal(router.Shutdown(ctx))
	fmt.Fprint(os.Stderr, router.Counters().String())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "routerd: %v\n", err)
		os.Exit(1)
	}
}
