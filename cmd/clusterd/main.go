// Command clusterd is the online side in one binary. Bare, it is the
// cluster-serving daemon: it loads a cluster model artifact (exported by
// `ddp -export-model`) and answers point→cluster assignment queries over
// HTTP/JSON, using the model's LSH parameters as an
// approximate-nearest-neighbor index so a query scans a few buckets instead
// of the whole labeled dataset. `clusterd partition` splits a model into a
// serving fleet, `clusterd route` fronts that fleet, and `clusterd
// rollover` compacts an ingesting fleet shard by shard.
//
// Usage:
//
//	clusterd -model model.ddpm -listen :8080
//	clusterd partition -model model.ddpm -shards 4 -out fleetdir
//	clusterd route -manifest fleetdir/fleet.json \
//	        -shards "host1:8080|host1b:8080,host2:8080" -listen :8090
//	clusterd rollover -shards "h0:8080|h0b:8080,h1:8080"
//
// Endpoints:
//
//	POST /assign  {"points": [[x1,x2,...], ...]}
//	              → {"results": [{"cluster":..,"halo":..,"nearest":..,
//	                 "dist":..,"peak_dist":..,"exact":..}, ...]}
//	GET  /healthz liveness/readiness probe (503 while draining or modelless)
//	GET  /statsz  serve.* counters, latency quantiles, queue occupancy
//	POST /reload  re-read the model artifact and swap it in atomically
//
// SIGHUP also triggers a reload; SIGINT/SIGTERM drain in-flight requests and
// exit. Each request is answered on its own handler, at most -workers at
// once, and a bounded admission queue sheds excess load with 429 instead of
// queueing without bound — see OPERATIONS.md for the runbook.
//
// With -ingest-dir the daemon becomes an ingest node: POST /ingest appends
// points into a WAL-backed delta segment (immediately assignable, no
// restart), a background compactor merges them into versioned artifacts
// (POST /compact forces one), and /reload is disabled — the compactor owns
// the model lineage. SIGHUP triggers a compaction instead of a reload. See
// OPERATIONS.md "Streaming ingest".
//
// partition writes fleetdir/shard-000.ddpm … shard-003.ddpm and
// fleetdir/fleet.json. Each sub-model holds only the rows of the buckets
// its shard owns (plus every cluster peak, replicated so halo fields and
// the exact fallback work anywhere) and a RowIDs section mapping local
// rows back to global point IDs. Start one clusterd per artifact with the
// matching -shard id: /statsz then reports the shard id and the
// shard-internal POST /fleet/assign endpoint answers the router's masked
// scans. See OPERATIONS.md "Running a fleet".
//
// route loads fleet.json, hashes each incoming query's LSH bucket keys on
// the placement the partitioner wrote, and scatter-gathers shard-internal
// /fleet/assign calls to only the shards owning those buckets. Merged
// answers are bit-identical to a single clusterd serving the full model;
// the public /assign contract (request shape, validation errors, 429/500
// semantics, response bytes) is exactly clusterd's. -shards lists replicas
// per shard: shards comma-separated in ring order, replicas of one shard
// pipe-separated. At startup every reachable replica must report the shard
// id its position names. Requests round-robin over a shard's alive
// replicas, hedge to a second replica after the shard's observed p99
// latency, and fail over on transport errors. A background prober marks a
// replica dead after 5 s without a successful /healthz and revives it when
// probes succeed again. The router's endpoints:
//
//	POST /assign  exactly clusterd's contract, served fleet-wide
//	POST /ingest  each point to the shard owning its certifying bucket, acks
//	              in request order (one replica per shard; OPERATIONS.md
//	              "Streaming ingest")
//	GET  /healthz router liveness
//	GET  /statsz  fleet.* counters, per-replica liveness, and a rollup
//	              summing serve.* counters across every reachable replica
//
// rollover POSTs /compact to every replica of every shard, one shard at a
// time, waiting for each replica's /healthz between shards, so at most one
// shard is busy compacting and queries keep their availability. It reads
// -shards as route does and checks the whole list before its first request.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/knob"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: clusterd -model model.ddpm [flags]   serve\n"+
			"       clusterd partition | route | rollover [flags]   split a model into a fleet | route a fleet | compact a fleet")
		flag.PrintDefaults()
	}
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "partition":
			runPartition(os.Args[2:])
		case "route":
			runRoute(os.Args[2:])
		case "rollover":
			runRollover(os.Args[2:])
		default:
			flag.Usage()
			os.Exit(2)
		}
		return
	}
	runServe()
}

func runServe() {
	var (
		modelPath = flag.String("model", "", "cluster model artifact path (required)")
		listen    = flag.String("listen", ":8080", "HTTP listen address")
		workers   = flag.Int("workers", 1, "engine calls answered at once (serve.workers)")
		shard     = flag.Int("shard", -1, "fleet shard id this daemon serves (reported in /statsz for the router's startup check; -1 = not in a fleet)")
		precision = flag.String("precision", "f64", "scan precision: f64 or q8 — q8 filters rows on 8-bit codes before their exact distance, results are identical (serve.scan.precision)")
		traceOut  = flag.String("trace", "", "write a JSONL trace with one span per request to this file on exit (debugging; unbounded)")
		verbose   = flag.Bool("v", false, "log server events")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address")

		ingestDir  = flag.String("ingest-dir", "", "enable streaming ingest: WAL + compacted artifacts live here (ingest.dir)")
		compactInt = flag.Duration("compact-interval", 30*time.Second, "background compaction period; 0 = manual /compact only (ingest.compact.interval)")
		ingFsync   = flag.Bool("ingest-fsync", false, "fsync the WAL on every ingest batch (ingest.wal.fsync)")
		ingIDBase  = flag.Int64("ingest-id-base", 0, "first global ID for ingested points; 0 = base model max + 1 (ingest.id.base)")
		ingIDStr   = flag.Int64("ingest-id-stride", 1, "global-ID increment between ingested points; fleet shards use the shard count (ingest.id.stride)")
	)
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "clusterd: -model is required")
		flag.Usage()
		os.Exit(2)
	}

	loader := func() (*model.Model, error) { return model.ReadFile(*modelPath) }

	cfg := serve.Config{
		Workers:   *workers,
		Precision: *precision,
		Loader:    loader,
	}
	if *shard != -1 {
		cfg.ShardID = shard
	}
	ingCfg := ingest.Config{
		Dir:       *ingestDir,
		Precision: *precision,
		Interval:  *compactInt,
		Fsync:     *ingFsync,
		IDBase:    *ingIDBase,
		IDStride:  *ingIDStr,
	}
	if err := cmp.Or(cfg.Validate(), ingCfg.Validate()); err != nil {
		fmt.Fprintln(os.Stderr, "clusterd:", err)
		os.Exit(2)
	}
	if *verbose {
		cfg.Log = logStderr
	}
	var trace *obs.Trace
	if *traceOut != "" {
		trace = &obs.Trace{}
		cfg.Trace = trace
	}
	if *pprofAddr != "" {
		p, err := obs.StartPprof(*pprofAddr)
		fatal(err)
		fmt.Fprintf(os.Stderr, "clusterd: pprof on http://%s/debug/pprof/\n", p.Addr())
	}

	srv := serve.New(cfg)
	var store *ingest.Store
	if *ingestDir != "" {
		var err error
		ingCfg.OnSwap, ingCfg.Log = srv.UseEngine, cfg.Log
		store, err = ingest.Open(ingCfg, loader)
		fatal(err)
		srv.SetIngest(store)
		srv.UseEngine(store.Engine())
	} else {
		fatal(srv.Reload()) // initial model load, through the same path SIGHUP uses
	}
	fatal(srv.Start(*listen))
	fmt.Fprintf(os.Stderr, "clusterd: serving on %s (model %s)\n", srv.Addr(), *modelPath)

	untilSignal(func() {
		if store != nil {
			if info, err := store.Compact(); err != nil {
				fmt.Fprintf(os.Stderr, "clusterd: compaction failed, keeping old base: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "clusterd: compacted to version %d (%d rows)\n", info.Version, info.BaseN)
			}
			return
		}
		if err := srv.Reload(); err != nil {
			fmt.Fprintf(os.Stderr, "clusterd: reload failed, keeping old model: %v\n", err)
		} else {
			fmt.Fprintln(os.Stderr, "clusterd: model reloaded")
		}
	}, srv.Shutdown)
	if store != nil {
		fatal(store.Close()) // unflushed delta replays from the WAL next start
	}
	fmt.Fprint(os.Stderr, srv.Counters().String())
	if trace != nil {
		f, err := os.Create(*traceOut)
		fatal(err)
		fatal(trace.WriteJSONL(f))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "clusterd: trace written to %s\n", *traceOut)
	}
}

func runPartition(args []string) {
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
	if err := knob.Count("-vnodes", *vnodes); err != nil {
		fmt.Fprintln(os.Stderr, "clusterd partition:", err)
		fs.Usage()
		os.Exit(2)
	}

	m, err := model.ReadFile(*modelPath)
	fatal(err)
	fmt.Fprintf(os.Stderr, "clusterd: partitioning %q (%d points, dim %d, M=%d) into %d shards\n",
		m.Name, m.N(), m.Dim, m.LSH.M, *shards)
	subs, mf, err := fleet.Partition(m, *shards, *vnodes)
	fatal(err)
	fmt.Fprintf(os.Stderr, "clusterd: buckets placed by cluster group, %d of them off their ring owner (recorded in the manifest)\n",
		len(mf.Overrides))

	fatal(os.MkdirAll(*out, 0o755))
	total := 0
	for s, sub := range subs {
		path := filepath.Join(*out, fmt.Sprintf("shard-%03d.ddpm", s))
		fatal(sub.WriteFile(path))
		total += sub.N()
		fmt.Fprintf(os.Stderr, "clusterd: %s: %d rows (%.1f%% of source)\n",
			path, sub.N(), 100*float64(sub.N())/float64(m.N()))
	}
	fatal(mf.Save(filepath.Join(*out, "fleet.json")))
	fmt.Fprintf(os.Stderr, "clusterd: wrote %s (replication factor %.2f)\n",
		filepath.Join(*out, "fleet.json"), float64(total)/float64(m.N()))
}

func runRoute(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	var (
		manifest = fs.String("manifest", "", "fleet.json written by clusterd partition (required)")
		shards   = fs.String("shards", "", "replica addresses: shards comma-separated in ring order, replicas of a shard pipe-separated (required)")
		listen   = fs.String("listen", ":8090", "HTTP listen address")
		verbose  = fs.Bool("v", false, "log router events")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *manifest == "" || *shards == "" {
		fmt.Fprintln(os.Stderr, "clusterd route: -manifest and -shards are required")
		fs.Usage()
		os.Exit(2)
	}

	mf, err := fleet.LoadManifest(*manifest)
	fatal(err)
	replicaSets, err := parseShards(*shards)
	fatal(err)
	cfg := fleet.RouterConfig{Manifest: mf, Shards: replicaSets}
	if *verbose {
		cfg.Log = logStderr
	}
	router, err := fleet.NewRouter(cfg)
	fatal(err)

	check, cancelCheck := context.WithTimeout(context.Background(), 10*time.Second)
	fatal(router.CheckShards(check))
	cancelCheck()
	fatal(router.Start(*listen))
	fmt.Fprintf(os.Stderr, "clusterd: routing %d shards on %s (manifest %s: %q, %d points, M=%d)\n",
		mf.Shards, router.Addr(), *manifest, mf.Name, mf.N, mf.M)

	untilSignal(nil, router.Shutdown)
	fmt.Fprint(os.Stderr, router.Counters().String())
}

// runRollover compacts an ingesting fleet one shard at a time: every
// replica of a shard gets POST /compact (each replica owns its own ingest
// directory and delta), then every replica must answer /healthz before the
// next shard starts.
func runRollover(args []string) {
	fs := flag.NewFlagSet("rollover", flag.ExitOnError)
	var (
		shards  = fs.String("shards", "", `replica addresses per shard: comma between shards, "|" between replicas (required; same syntax as clusterd route)`)
		timeout = fs.Duration("timeout", 5*time.Minute, "per-replica bound on compaction + health recovery")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *shards == "" {
		fs.Usage()
		os.Exit(2)
	}
	replicaSets, err := parseShards(*shards)
	fatal(err)
	client := &http.Client{Timeout: *timeout}
	for s, reps := range replicaSets {
		for _, addr := range reps {
			fmt.Fprintf(os.Stderr, "clusterd: shard %d %s: compacting...\n", s, addr)
			resp, err := client.Post("http://"+addr+"/compact", "application/json", nil)
			fatal(err)
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fatal(fmt.Errorf("shard %d %s: /compact: HTTP %d: %s", s, addr, resp.StatusCode, strings.TrimSpace(string(body))))
			}
			fmt.Fprintf(os.Stderr, "clusterd: shard %d %s: %s\n", s, addr, strings.TrimSpace(string(body)))
			fatal(waitHealthy(client, addr, *timeout))
		}
	}
	fmt.Fprintln(os.Stderr, "clusterd: rollover complete")
}

// parseShards reads a -shards list: shards comma-separated in ring order,
// replicas of a shard pipe-separated, blank replica entries dropped. A
// shard left with no replica is an error, so a malformed list fails before
// any request is sent.
func parseShards(list string) ([][]string, error) {
	var shards [][]string
	for s, group := range strings.Split(list, ",") {
		var reps []string
		for _, addr := range strings.Split(group, "|") {
			if a := strings.TrimSpace(addr); a != "" {
				reps = append(reps, a)
			}
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("-shards %q: shard %d has no replicas", list, s)
		}
		shards = append(shards, reps)
	}
	return shards, nil
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

// untilSignal blocks until SIGINT or SIGTERM, running hup on every SIGHUP
// when hup is non-nil, then drains through shutdown within 30 s.
func untilSignal(hup func(), shutdown func(context.Context) error) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if hup != nil {
		signal.Notify(sig, syscall.SIGHUP)
	}
	for s := range sig {
		if s != syscall.SIGHUP {
			break
		}
		hup()
	}
	fmt.Fprintln(os.Stderr, "clusterd: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fatal(shutdown(ctx))
}

func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: %v\n", err)
		os.Exit(1)
	}
}
