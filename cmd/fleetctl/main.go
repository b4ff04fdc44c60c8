// Command fleetctl prepares and operates serving fleets: it partitions a
// full cluster model artifact into per-shard sub-models routed by
// consistent hashing over LSH bucket keys (plus the fleet.json manifest
// routerd routes by), and rolls an ingesting fleet's compactions forward
// shard by shard.
//
// Usage:
//
//	fleetctl partition -model model.ddpm -shards 4 -out fleetdir
//	fleetctl rollover -shards "h0:8080|h0b:8080,h1:8080"
//
// partition writes fleetdir/shard-000.ddpm … shard-003.ddpm and
// fleetdir/fleet.json. Each sub-model holds only the rows of the buckets
// its shard owns (plus every cluster peak, replicated so halo fields and
// the exact fallback work anywhere) and a RowIDs section mapping local
// rows back to global point IDs. Start one clusterd per artifact with the
// matching -shard id, then point routerd at the manifest — see
// OPERATIONS.md "Running a fleet".
//
// rollover POSTs /compact to every replica of every shard, one shard at a
// time, waiting for each replica's /healthz between shards, so at most one
// shard is busy compacting and queries keep their availability — see
// OPERATIONS.md "Streaming ingest".
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/model"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "partition":
		partition(os.Args[2:])
	case "rollover":
		rollover(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fleetctl partition -model model.ddpm -shards N [-vnodes V] -out dir")
	fmt.Fprintln(os.Stderr, "       fleetctl rollover -shards \"h0|h0b,h1\" [-timeout 5m]")
	os.Exit(2)
}

func partition(args []string) {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "", "full cluster model artifact to partition (required)")
		shards    = fs.Int("shards", 0, "shard count (required, >= 1)")
		vnodes    = fs.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
		out       = fs.String("out", "", "output directory for shard artifacts and fleet.json (required)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *modelPath == "" || *out == "" || *shards < 1 {
		fs.Usage()
		os.Exit(2)
	}

	m, err := model.ReadFile(*modelPath)
	fatal(err)
	fmt.Fprintf(os.Stderr, "fleetctl: partitioning %q (%d points, dim %d, M=%d) into %d shards\n",
		m.Name, m.N(), m.Dim, m.LSH.M, *shards)
	subs, mf, err := fleet.Partition(m, *shards, *vnodes)
	fatal(err)
	fmt.Fprintf(os.Stderr, "fleetctl: %d buckets placed by cluster group, %d of them off their ring owner (recorded in the manifest)\n",
		len(mf.Layouts().BuildIndex(m.Data, m.N(), nil).Keys), len(mf.Overrides))

	fatal(os.MkdirAll(*out, 0o755))
	total := 0
	for s, sub := range subs {
		path := filepath.Join(*out, fmt.Sprintf("shard-%03d.ddpm", s))
		fatal(sub.WriteFile(path))
		total += sub.N()
		fmt.Fprintf(os.Stderr, "fleetctl: %s: %d rows (%.1f%% of source)\n",
			path, sub.N(), 100*float64(sub.N())/float64(m.N()))
	}
	fatal(mf.Save(filepath.Join(*out, "fleet.json")))
	fmt.Fprintf(os.Stderr, "fleetctl: wrote %s (replication factor %.2f)\n",
		filepath.Join(*out, "fleet.json"), float64(total)/float64(m.N()))
}

// rollover compacts an ingesting fleet one shard at a time: every replica
// of a shard gets POST /compact (each replica owns its own ingest
// directory and delta), then every replica must answer /healthz before the
// next shard starts.
func rollover(args []string) {
	fs := flag.NewFlagSet("rollover", flag.ExitOnError)
	var (
		shards  = fs.String("shards", "", `replica addresses per shard: comma between shards, "|" between replicas (required; same syntax as routerd)`)
		timeout = fs.Duration("timeout", 5*time.Minute, "per-replica bound on compaction + health recovery")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *shards == "" {
		fs.Usage()
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	for s, group := range strings.Split(*shards, ",") {
		for _, addr := range strings.Split(group, "|") {
			addr = strings.TrimSpace(addr)
			fmt.Fprintf(os.Stderr, "fleetctl: shard %d %s: compacting...\n", s, addr)
			resp, err := client.Post("http://"+addr+"/compact", "application/json", nil)
			fatal(err)
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fatal(fmt.Errorf("shard %d %s: /compact: HTTP %d: %s", s, addr, resp.StatusCode, strings.TrimSpace(string(body))))
			}
			fmt.Fprintf(os.Stderr, "fleetctl: shard %d %s: %s\n", s, addr, strings.TrimSpace(string(body)))
			fatal(waitHealthy(client, addr, *timeout))
		}
	}
	fmt.Fprintln(os.Stderr, "fleetctl: rollover complete")
}

func waitHealthy(client *http.Client, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not healthy after %v", addr, timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetctl: %v\n", err)
		os.Exit(1)
	}
}
