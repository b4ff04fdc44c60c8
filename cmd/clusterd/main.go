// Command clusterd is the online cluster-serving daemon: it loads a cluster
// model artifact (exported by `ddp -export-model`) and answers point→cluster
// assignment queries over HTTP/JSON, using the model's LSH parameters as an
// approximate-nearest-neighbor index so a query scans a few buckets instead
// of the whole labeled dataset.
//
// Usage:
//
//	clusterd -model model.ddpm -listen :8080
//	clusterd -model /models/m.ddpm -namenode host:9000   # artifact in the DFS
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
// As a fleet member, clusterd loads a fleetctl sub-model and runs with
// -shard N: /statsz then reports the shard id (routerd verifies it at
// startup) and the shard-internal POST /fleet/assign endpoint answers the
// router's masked scans. See OPERATIONS.md "Running a fleet".
//
// With -ingest-dir the daemon becomes an ingest node: POST /ingest appends
// points into a WAL-backed delta segment (immediately assignable, no
// restart), a background compactor merges them into versioned artifacts
// (POST /compact forces one), and /reload is disabled — the compactor owns
// the model lineage. SIGHUP triggers a compaction instead of a reload. See
// OPERATIONS.md "Streaming ingest".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfsio"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		modelPath = flag.String("model", "", "cluster model artifact: local path, or DFS path with -namenode (required)")
		namenode  = flag.String("namenode", "", "load the model from the mini-DFS at this namenode address")
		listen    = flag.String("listen", ":8080", "HTTP listen address")
		queue     = flag.Int("queue", 128, "admission queue bound; excess requests get 429 (serve.queue.depth)")
		workers   = flag.Int("workers", 1, "engine calls answered at once (serve.workers)")
		maxPts    = flag.Int("max-points", 1024, "maximum points per request (serve.max.request.points)")
		exact     = flag.Bool("exact", false, "disable LSH pruning; answer every query by full scan (serve.exact)")
		shard     = flag.Int("shard", -1, "fleet shard id this daemon serves (reported in /statsz for routerd's startup check; -1 = not in a fleet)")
		hdrTO     = flag.Duration("read-header-timeout", 0, "bound on reading a request's headers (0 = 5s default, negative disables) (serve.read.header.timeout)")
		idleTO    = flag.Duration("idle-timeout", 0, "keep-alive idle connection bound (0 = 2m default, negative disables) (serve.idle.timeout)")
		precision = flag.String("precision", "f64", "scan precision: f64, f32, or q8 — compact scans re-rank exactly, results are identical (serve.scan.precision)")
		traceOut  = flag.String("trace", "", "write a JSONL trace with one span per request to this file on exit (debugging; unbounded)")
		verbose   = flag.Bool("v", false, "log server events")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address")

		ingestDir  = flag.String("ingest-dir", "", "enable streaming ingest: WAL + compacted artifacts live here (ingest.dir)")
		compactInt = flag.Duration("compact-interval", 30*time.Second, "background compaction period; 0 = manual /compact only (ingest.compact.interval)")
		compactMin = flag.Int("compact-min-points", 1024, "periodic compactions wait for this many delta points (ingest.compact.min.points)")
		ingFsync   = flag.Bool("ingest-fsync", false, "fsync the WAL on every ingest batch (ingest.wal.fsync)")
		ingMax     = flag.Int("ingest-max-delta", 1<<20, "delta segment bound; full delta sheds ingests with 429 (ingest.delta.max)")
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
	if *namenode != "" {
		loader = func() (*model.Model, error) {
			client, err := dfs.NewClient(*namenode)
			if err != nil {
				return nil, err
			}
			defer client.Close()
			return dfsio.LoadModel(client, *modelPath)
		}
	}

	cfg := serve.Config{
		QueueDepth:        *queue,
		Workers:           *workers,
		MaxRequestPoints:  *maxPts,
		ReadHeaderTimeout: *hdrTO,
		IdleTimeout:       *idleTO,
		ExactOnly:         *exact,
		Precision:         *precision,
		Loader:            loader,
	}
	if *shard >= 0 {
		cfg.ShardID = shard
	}
	if _, err := serve.ParsePrecision(*precision); err != nil {
		fatal(err)
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
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
		store, err = ingest.Open(ingest.Config{
			Dir:       *ingestDir,
			Precision: *precision,
			Interval:  *compactInt,
			MinPoints: *compactMin,
			MaxDelta:  *ingMax,
			Fsync:     *ingFsync,
			IDBase:    *ingIDBase,
			IDStride:  *ingIDStr,
			OnSwap:    srv.UseEngine,
			Log:       cfg.Log,
		}, loader)
		fatal(err)
		srv.SetIngest(store)
		srv.UseEngine(store.Engine())
	} else {
		fatal(srv.Reload()) // initial model load, through the same path SIGHUP uses
	}
	fatal(srv.Start(*listen))
	fmt.Fprintf(os.Stderr, "clusterd: serving on %s (model %s)\n", srv.Addr(), *modelPath)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			if store != nil {
				if info, err := store.Compact(); err != nil {
					fmt.Fprintf(os.Stderr, "clusterd: compaction failed, keeping old base: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "clusterd: compacted to version %d (%d rows)\n", info.Version, info.BaseN)
				}
				continue
			}
			if err := srv.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "clusterd: reload failed, keeping old model: %v\n", err)
			} else {
				fmt.Fprintln(os.Stderr, "clusterd: model reloaded")
			}
			continue
		}
		break
	}

	fmt.Fprintln(os.Stderr, "clusterd: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fatal(srv.Shutdown(ctx))
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

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: %v\n", err)
		os.Exit(1)
	}
}
