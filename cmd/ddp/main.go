// Command ddp clusters a CSV of points with one of the distributed
// Density Peaks algorithms (or the exact sequential reference) and writes
// per-point cluster labels.
//
// Local (multicore) usage:
//
//	ddp -input points.csv -algo lsh -k 7 -out labels.csv
//	ddp -input points.csv -algo basic -graph        # print decision graph
//	ddp -input points.csv -algo eddpc -rho-min 14 -delta-min 40
//	ddp -input points.csv -algo lsh -halo
//	ddp -input points.csv -algo lsh -k 7 -export-model model.ddpm
//
// Distributed usage — ddp becomes the MapReduce master and waits for
// workers (started with `mrd worker -master <this host>:7070`):
//
//	ddp -input points.csv -algo lsh -k 7 -master-listen :7070 -min-workers 2
//
// The input is one point per row, comma-separated float coordinates
// (use -labeled if the last column is a ground-truth label to ignore).
// When no selection flags are given, the number of clusters is suggested
// automatically from the decision graph's γ spectrum.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/eddpc"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
)

func main() {
	var (
		input    = flag.String("input", "", "input CSV file (required)")
		labeled  = flag.Bool("labeled", false, "treat the last CSV column as a label to ignore")
		algo     = flag.String("algo", "lsh", "algorithm: lsh | basic | eddpc | exact")
		k        = flag.Int("k", 0, "select the k top-gamma peaks (0 = box flags or auto-suggest)")
		rhoMin   = flag.Float64("rho-min", 0, "decision-graph box: minimum rho")
		deltaMin = flag.Float64("delta-min", 0, "decision-graph box: minimum delta")
		accuracy = flag.Float64("accuracy", 0.99, "LSH-DDP expected accuracy A")
		mFlag    = flag.Int("m", 10, "LSH-DDP hash groups M")
		piFlag   = flag.Int("pi", 3, "LSH-DDP hash functions per group")
		dc       = flag.Float64("dc", 0, "cutoff distance (0 = 2% percentile rule)")
		block    = flag.Int("block", 500, "Basic-DDP block size")
		seed     = flag.Int64("seed", 1, "random seed")
		graph    = flag.Bool("graph", false, "print an ASCII decision graph")
		svg      = flag.String("svg", "", "write the decision graph as SVG to this file")
		halo     = flag.Bool("halo", false, "also flag halo (border/noise) points in the output")
		export   = flag.String("export-model", "", "write a cluster model artifact (servable by clusterd) to this file")
		out      = flag.String("out", "", "write labels CSV here ('-' or empty = stdout)")
		verbose  = flag.Bool("v", false, "log per-job progress")
		traceOut = flag.String("trace", "", "write a JSONL job trace (task phase spans) to this file")

		masterListen = flag.String("master-listen", "", "run distributed: listen for mrd workers on this address")
		minWorkers   = flag.Int("min-workers", 1, "distributed: wait for at least this many workers")
		workerWait   = flag.Duration("worker-wait", time.Minute, "distributed: how long to wait for workers")
		monitor      = flag.Duration("monitor", 0, "distributed: emit live counter snapshots at this interval (0 = off)")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "ddp: -input is required")
		flag.Usage()
		os.Exit(2)
	}

	ds, err := dataset.ReadCSVFile(*input, "input", *labeled)
	fatal(err)

	engine, cleanup, err := buildEngine(*masterListen, *minWorkers, *workerWait, *monitor, *verbose)
	fatal(err)
	defer cleanup()

	cfg := core.Config{
		Engine: engine,
		Dc:     *dc,
		Seed:   *seed,
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

	// SIGINT cancels the pipeline between (and inside) jobs: the session
	// starts no further job, the engine drains in-flight work, and the run
	// returns context.Canceled instead of dying mid-shuffle.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := runAlgorithm(ctx, ds, *algo, cfg, *accuracy, *mFlag, *piFlag, *block)
	if err != nil && errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ddp: interrupted")
		os.Exit(130)
	}
	fatal(err)

	if trace != nil {
		f, err := os.Create(*traceOut)
		fatal(err)
		fatal(trace.WriteJSONL(f))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "ddp: trace written to %s (%d jobs)\n", *traceOut, len(trace.Jobs()))
	}

	g, err := res.Graph()
	fatal(err)
	g.Rectify()
	var peaks []int32
	switch {
	case *k > 0:
		peaks = g.SelectTopK(*k)
	case *rhoMin > 0 || *deltaMin > 0:
		peaks = g.SelectBox(*rhoMin, *deltaMin)
	default:
		suggested := g.SuggestK(64)
		fmt.Fprintf(os.Stderr, "ddp: auto-suggested k = %d (override with -k or -rho-min/-delta-min)\n", suggested)
		peaks = g.SelectTopK(suggested)
	}
	labels, err := g.Assign(ds, peaks)
	fatal(err)

	var haloFlags []bool
	var border []float64
	if *halo || *export != "" {
		// The model artifact carries border densities so clusterd can flag
		// halo points, so -export-model implies the halo job.
		hr, err := core.RunLSHHalo(ctx, ds, res.Rho, labels, res.Stats.Dc, core.LSHConfig{
			Config: cfg, Accuracy: *accuracy, M: *mFlag, Pi: *piFlag,
		})
		fatal(err)
		border = hr.Border
		if *halo {
			haloFlags = hr.Halo
		}
	}

	if *export != "" {
		mdl, err := core.ExportModel(ds, res, peaks, labels, border, *seed)
		fatal(err)
		fatal(mdl.WriteFile(*export))
		fmt.Fprintf(os.Stderr, "ddp: model artifact written to %s (%d points, %d clusters)\n",
			*export, mdl.N(), mdl.NumClusters())
	}

	fmt.Fprintf(os.Stderr, "ddp: %s on %d points (dim %d): %d clusters, dc=%.4g, %.2fs, shuffle=%.2fMB, dist=%d\n",
		*algo, ds.N(), ds.Dim(), len(peaks), res.Stats.Dc, time.Since(start).Seconds(),
		float64(res.Stats.ShuffleBytes)/(1<<20), res.Stats.DistanceComputations)

	if *graph {
		fmt.Fprint(os.Stderr, g.Render(100, 28, peaks))
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		fatal(err)
		fatal(g.RenderSVG(f, 640, 480, peaks))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "ddp: decision graph written to %s\n", *svg)
	}

	w := os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		fatal(err)
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	for i, l := range labels {
		if haloFlags != nil {
			h := 0
			if haloFlags[i] {
				h = 1
			}
			fmt.Fprintf(bw, "%d,%d,%d\n", i, l, h)
		} else {
			fmt.Fprintf(bw, "%d,%d\n", i, l)
		}
	}
	fatal(bw.Flush())
}

// buildEngine returns the local engine, or boots a master and waits for
// workers when -master-listen is set.
func buildEngine(listen string, minWorkers int, wait, monitor time.Duration, verbose bool) (mapreduce.Engine, func(), error) {
	if listen == "" {
		return &mapreduce.LocalEngine{}, func() {}, nil
	}
	m, err := rpcmr.NewMaster(listen)
	if err != nil {
		return nil, nil, err
	}
	m.MonitorInterval = monitor
	if verbose || monitor > 0 {
		m.Log = log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds).Printf
	}
	fmt.Fprintf(os.Stderr, "ddp: master listening on %s; waiting for %d worker(s)...\n", m.Addr(), minWorkers)
	if err := m.WaitWorkers(minWorkers, wait); err != nil {
		m.Close()
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "ddp: %d worker(s) connected\n", m.WorkerCount())
	return m, func() { m.Close() }, nil
}

func runAlgorithm(ctx context.Context, ds *dataset.DS, algo string, cfg core.Config, accuracy float64, m, pi, block int) (*core.Result, error) {
	switch algo {
	case "lsh":
		return core.RunLSHDDP(ctx, ds, core.LSHConfig{Config: cfg, Accuracy: accuracy, M: m, Pi: pi})
	case "basic":
		return core.RunBasicDDP(ctx, ds, core.BasicConfig{Config: cfg, BlockSize: block})
	case "eddpc":
		return eddpc.Run(ctx, ds, eddpc.Config{Config: cfg})
	case "exact":
		// d_c comes from the same sampling job the distributed algorithms
		// run, so exact is their counterpart on the same input.
		start := time.Now()
		sess := cfg.DagSession()
		mark := sess.Mark()
		dcv, err := core.ChooseDc(ctx, sess, ds, &cfg, core.InputPairs(ds))
		if err != nil {
			return nil, err
		}
		ref, err := dp.Compute(ds, dcv, dp.Options{})
		if err != nil {
			return nil, err
		}
		res := &core.Result{Rho: ref.Rho, Delta: ref.Delta, Upslope: ref.Upslope}
		res.Stats.Dc = dcv
		core.CollectStats(&res.Stats, sess, mark, start)
		return res, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddp: %v\n", err)
		os.Exit(1)
	}
}
