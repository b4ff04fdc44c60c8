// Command ddp is the batch side in one binary. Bare, it clusters a CSV of
// points (one per row, comma-separated coordinates; -labeled ignores a last
// label column) with a distributed Density Peaks algorithm or the exact
// sequential reference, and writes per-point cluster labels. `ddp knn` runs
// the distributed kNN-join, `ddp gen` writes the evaluation data sets as CSV
// (-split R:S writes a query and a base file, -R / -S before -o's
// extension), `ddp exp` runs the paper's experiments (Section VI), and
// `ddp worker` is a MapReduce worker.
//
//	ddp -input points.csv -algo lsh -k 7 -out labels.csv
//	ddp -input points.csv -algo basic -graph        # print decision graph
//	ddp -input points.csv -algo lsh -halo -export-model model.ddpm
//	ddp gen -dataset BigCross500K -split 1000:9000 -seed 7 -o big.csv
//	ddp knn -r big-R.csv -s big-S.csv -labeled -k 10 -out neighbors.csv
//	ddp exp -scale 4 fig10 table4       # no names: all 11, several minutes
//
// Clustering and the join run on the local multicore engine; with
// -master-listen the command is the MapReduce master and waits for workers
// (OPERATIONS.md), which dial it; a worker's one socket is its -addr listener.
//
//	ddp -input points.csv -k 7 -master-listen :7070 -min-workers 2
//	ddp worker -master driver-host:7070 -addr :7171   # per worker
package main

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/eddpc"
	"repro/internal/experiments"
	"repro/internal/kmeansmr"
	"repro/internal/knnjoin"
	"repro/internal/knob"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
	"repro/internal/points"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ddp -input points.csv [flags]   cluster\n"+
			"       ddp knn | gen | exp | worker [flags]   kNN-join | data set CSV | experiments | MapReduce worker")
		flag.PrintDefaults()
	}
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "knn":
			runKnn(os.Args[2:])
		case "gen":
			runGen(os.Args[2:])
		case "worker":
			runWorker(os.Args[2:])
		case "exp":
			runExp(os.Args[2:])
		default:
			flag.Usage()
			os.Exit(2)
		}
		return
	}
	runCluster()
}

func runCluster() {
	var (
		input        = flag.String("input", "", "input CSV file (required)")
		labeled      = flag.Bool("labeled", false, "treat the last CSV column as a label to ignore")
		algo         = flag.String("algo", "lsh", "algorithm: lsh | basic | eddpc | exact")
		k            = flag.Int("k", 0, "select the k top-gamma peaks (0 = box flags or auto-suggest)")
		rhoMin       = flag.Float64("rho-min", 0, "decision-graph box: minimum rho")
		deltaMin     = flag.Float64("delta-min", 0, "decision-graph box: minimum delta")
		accuracy     = flag.Float64("accuracy", 0, "LSH-DDP expected accuracy A (0 = the pipeline's default, 0.99)")
		mFlag        = flag.Int("m", 0, "LSH-DDP hash groups M (0 = the pipeline's default, 10)")
		piFlag       = flag.Int("pi", 0, "LSH-DDP hash functions per group (0 = the pipeline's default, 3)")
		dc           = flag.Float64("dc", 0, "cutoff distance (0 = 2% percentile rule)")
		block        = flag.Int("block", 0, "Basic-DDP block size (0 = the pipeline's default, 500)")
		seed         = flag.Int64("seed", 1, "random seed")
		graph        = flag.Bool("graph", false, "print an ASCII decision graph")
		svg          = flag.String("svg", "", "write the decision graph as SVG to this file")
		halo         = flag.Bool("halo", false, "also flag halo (border/noise) points in the output")
		export       = flag.String("export-model", "", "write a cluster model artifact (servable by clusterd) to this file")
		out          = flag.String("out", "", "write labels CSV here ('-' or empty = stdout)")
		verbose      = flag.Bool("v", false, "log per-job progress")
		traceOut     = flag.String("trace", "", "write a JSONL job trace (task phase spans) to this file")
		masterListen = flag.String("master-listen", "", "run distributed: listen for ddp workers on this address")
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
	if err := cmp.Or(knob.Count("-k", *k), knob.Real("-rho-min", *rhoMin), knob.Real("-delta-min", *deltaMin)); err != nil {
		fmt.Fprintln(os.Stderr, "ddp:", err, "(0 = box flags or auto-suggest)")
		os.Exit(2)
	}
	cfg := core.Config{Dc: *dc, Seed: *seed}
	if *verbose {
		cfg.Log = logStderr
	}
	if *traceOut != "" {
		cfg.Trace = &obs.Trace{}
	}
	lshCfg := core.LSHConfig{Config: cfg, Accuracy: *accuracy, M: *mFlag, Pi: *piFlag}
	basicCfg := core.BasicConfig{Config: cfg, BlockSize: *block}
	// Refused before the input is read or a worker is awaited.
	if err := cmp.Or(lshCfg.Validate(), basicCfg.Validate()); err != nil {
		fmt.Fprintln(os.Stderr, "ddp:", err)
		os.Exit(2)
	}

	ds := readCSV(*input, "input", *labeled)
	engine, cleanup := buildEngine(*masterListen, *minWorkers, *workerWait, *monitor, *verbose)
	defer cleanup()
	lshCfg.Engine, basicCfg.Engine = engine, engine

	// SIGINT cancels the pipeline between (and inside) jobs: the session
	// starts no further job, the engine drains in-flight work, and the run
	// returns context.Canceled instead of dying mid-shuffle.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := runAlgorithm(ctx, ds, *algo, lshCfg, basicCfg)
	if err != nil && errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ddp: interrupted")
		os.Exit(130)
	}
	fatal(err)

	if cfg.Trace != nil {
		writeOut(*traceOut, cfg.Trace.WriteJSONL)
		fmt.Fprintf(os.Stderr, "ddp: trace written to %s (%d jobs)\n", *traceOut, len(cfg.Trace.Jobs()))
	}

	g, err := res.Graph()
	fatal(err)
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

	var hr *core.HaloResult
	if *halo || *export != "" {
		// The model artifact carries border densities so clusterd can flag
		// halo points, so -export-model implies the halo job.
		hr, err = core.RunLSHHalo(ctx, ds, res, labels, lshCfg)
		fatal(err)
	}

	if *export != "" {
		mdl, err := core.ExportModel(ds, res, peaks, labels, hr.Border, *seed)
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
		writeOut(*svg, func(w io.Writer) error { return g.RenderSVG(w, 640, 480, peaks) })
		fmt.Fprintf(os.Stderr, "ddp: decision graph written to %s\n", *svg)
	}

	writeOut(*out, func(w io.Writer) error {
		for i, l := range labels {
			switch {
			case !*halo:
				fmt.Fprintf(w, "%d,%d\n", i, l)
			case hr.Halo[i]:
				fmt.Fprintf(w, "%d,%d,1\n", i, l)
			default:
				fmt.Fprintf(w, "%d,%d,0\n", i, l)
			}
		}
		return nil
	})
}

// runAlgorithm runs algo on ds: lsh with lsh's knobs, basic with basic's,
// eddpc and exact on lsh.Config.
func runAlgorithm(ctx context.Context, ds *points.Dataset, algo string, lsh core.LSHConfig, basic core.BasicConfig) (*core.Result, error) {
	cfg := lsh.Config
	switch algo {
	case "lsh":
		return core.RunLSHDDP(ctx, ds, lsh)
	case "basic":
		return core.RunBasicDDP(ctx, ds, basic)
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
		ref, err := dp.Compute(ds, dcv)
		if err != nil {
			return nil, err
		}
		res := &core.Result{Rho: ref.Rho, Delta: ref.Delta, Upslope: ref.Upslope, Stats: core.Stats{Dc: dcv}}
		core.CollectStats(&res.Stats, sess, mark, start)
		return res, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

// runKnn is `ddp knn`: one "query,rank,base,d²" row per neighbour.
func runKnn(args []string) {
	fs := flag.NewFlagSet("knn", flag.ExitOnError)
	var (
		rFile        = fs.String("r", "", "query-side CSV (required)")
		sFile        = fs.String("s", "", "base-side CSV (required)")
		labeled      = fs.Bool("labeled", false, "treat the last CSV column as a label to ignore")
		exact        = fs.Bool("exact", false, "run only the exact job (the oracle) instead of the bucketed join")
		k            = fs.Int("k", 10, "neighbors per query")
		m            = fs.Int("m", 0, "LSH layouts M (0 = the join's default)")
		pi           = fs.Int("pi", 0, "hash functions per layout (0 = the join's default)")
		w            = fs.Float64("w", 0, "LSH slot width (0 = solve from -accuracy)")
		accuracy     = fs.Float64("accuracy", 0.9, "target bucket accuracy when solving the width")
		seed         = fs.Int64("seed", 1, "layout / sampling seed")
		verbose      = fs.Bool("v", false, "log per-pass progress")
		out          = fs.String("out", "", "output CSV ('' or '-' = stdout)")
		masterListen = fs.String("master-listen", "", "run distributed: listen for ddp workers here")
		minWorkers   = fs.Int("min-workers", 1, "distributed: wait for at least this many workers")
		workerWait   = fs.Duration("worker-wait", time.Minute, "distributed: how long to wait for workers")
	)
	fs.Parse(args)
	if *rFile == "" || *sFile == "" {
		fatal(fmt.Errorf("knn needs -r and -s"))
	}
	cfg := knnjoin.Config{M: *m, Pi: *pi, W: *w, Accuracy: *accuracy, Seed: *seed}
	if *verbose {
		cfg.Log = logStderr
	}
	// Refused before the input is read or a worker is awaited.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ddp knn:", err)
		os.Exit(2)
	}
	R := readCSV(*rFile, "R", *labeled)
	S := readCSV(*sFile, "S", *labeled)
	engine, cleanup := buildEngine(*masterListen, *minWorkers, *workerWait, 0, *verbose)
	defer cleanup()
	join := knnjoin.Run
	if *exact {
		join = knnjoin.RunExact
	}
	res, err := join(context.Background(), dag.NewSession(engine, dag.Options{}), R, S, *k, cfg)
	fatal(err)

	writeOut(*out, func(w io.Writer) error {
		for qid, ns := range res.Neighbors {
			for rank, n := range ns {
				fmt.Fprintf(w, "%d,%d,%d,%g\n", qid, rank, n.ID, n.D2)
			}
		}
		return nil
	})
	fmt.Fprintf(os.Stderr, "ddp: joined %d queries against %d base points (k=%d, %d fallbacks, %d distance computations)\n",
		R.N(), S.N(), *k, res.Fallbacks, res.Stats.DistanceComputations)
}

// runGen is `ddp gen`: a registry data set as CSV, labels in the last
// column.
func runGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		name  = fs.String("dataset", "", "data set name (see -list)")
		n     = fs.Int("n", 0, "keep this many evenly strided points (0 = registry size)")
		seed  = fs.Int64("seed", 42, "generation seed")
		out   = fs.String("o", "-", "output file ('-' = stdout)")
		list  = fs.Bool("list", false, "list available data sets")
		split = fs.String("split", "", "emit a disjoint R:S pair (e.g. 1000:9000); needs -o")
	)
	fs.Parse(args)

	if *list {
		fmt.Printf("%-14s %10s %5s %12s\n", "name", "genN", "dim", "paperN")
		for _, spec := range dataset.Registry() {
			fmt.Printf("%-14s %10d %5d %12d\n", spec.Name, spec.N, spec.Dim, spec.PaperN)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "ddp gen: -dataset is required (or -list)")
		os.Exit(2)
	}
	if err := knob.Count("-n", *n); err != nil {
		fmt.Fprintln(os.Stderr, "ddp gen:", err, "(0 = registry size)")
		os.Exit(2)
	}
	spec, err := dataset.Get(*name)
	fatal(err)
	ds := spec.Gen(*seed)
	size, nR := *n, 0
	if *split != "" {
		var nS int
		if _, err := fmt.Sscanf(*split, "%d:%d", &nR, &nS); err != nil || nR < 1 || nS < 1 {
			fatal(fmt.Errorf("bad -split %q, want R:S with positive counts", *split))
		}
		if *out == "-" || *out == "" {
			fatal(fmt.Errorf("-split needs -o (two files are written)"))
		}
		size = nR + nS
	}
	if size > ds.N() {
		fatal(fmt.Errorf("%d points requested but %s generates %d; raise the registry size instead", size, *name, ds.N()))
	}
	if size > 0 {
		ds = dataset.Subsample(ds, size) // strided: a prefix would drop whole clusters
	}
	write := func(path string, ds *points.Dataset) {
		writeOut(path, func(w io.Writer) error { return dataset.WriteCSV(w, ds) })
		if path != "-" && path != "" {
			fmt.Fprintf(os.Stderr, "ddp: wrote %d points (dim %d) to %s\n", ds.N(), ds.Dim(), path)
		}
	}
	if *split == "" {
		write(*out, ds)
		return
	}
	R, S, err := dataset.Split(ds, nR, *seed)
	fatal(err)
	ext := filepath.Ext(*out) // big.csv → big-R.csv and big-S.csv
	base := strings.TrimSuffix(*out, ext)
	write(base+"-R"+ext, R)
	write(base+"-S"+ext, S)
}

// runExp is `ddp exp`: the named experiments of experiments.All, or all of
// them, in its order, each report to stdout and with -csv to <dir>/<name>.csv.
func runExp(args []string) {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	var (
		scale    = fs.Int("scale", 1, "extra divisor on data set sizes (1 = DESIGN.md scale)")
		seed     = fs.Int64("seed", 42, "seed for data generation and algorithms")
		parallel = fs.Int("parallel", 0, "engine parallelism (0 = all cores)")
		verbose  = fs.Bool("v", false, "log per-job progress")
		csvDir   = fs.String("csv", "", "also write each report as CSV into this directory")
		traceOut = fs.String("trace", "", "write a JSONL job trace (task phase spans) to this file")
	)
	fs.Parse(args)
	opt := experiments.Options{Scale: *scale, Seed: *seed, Parallelism: *parallel}
	if err := opt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ddp exp:", err, "(0 = the default)")
		os.Exit(2)
	}
	known, want := map[string]bool{}, map[string]bool{}
	for _, e := range experiments.All {
		known[e.Name] = true
	}
	for _, name := range fs.Args() {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "ddp exp: unknown experiment %q\n", name)
			os.Exit(2)
		}
		want[name] = true
	}
	if *verbose {
		opt.Log = logStderr
	}
	if *traceOut != "" {
		opt.Trace = &obs.Trace{}
	}
	if *csvDir != "" {
		fatal(os.MkdirAll(*csvDir, 0o755))
	}
	for _, e := range experiments.All {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		start := time.Now()
		report, err := e.Run(opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		writeOut("", func(w io.Writer) error { _, err := report.WriteTo(w); return err })
		if *csvDir != "" {
			writeOut(filepath.Join(*csvDir, e.Name+".csv"), report.WriteCSVTo)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.Name, time.Since(start).Seconds())
	}
	if opt.Trace != nil {
		writeOut(*traceOut, opt.Trace.WriteJSONL)
		fmt.Printf("wrote %s (%d job traces)\n", *traceOut, len(opt.Trace.Jobs()))
	}
}

// runWorker is `ddp worker`: it serves the master's tasks until SIGINT.
func runWorker(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	master := fs.String("master", "localhost:7070", "master address")
	addr := fs.String("addr", ":0", "listen address for shuffle fetches, the worker's only socket (:0 = any port)")
	verbose := fs.Bool("v", false, "log task events to stderr")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on this address (e.g. :6061; empty = off)")
	fs.Parse(args)
	if *pprofAddr != "" {
		p, err := obs.StartPprof(*pprofAddr)
		fatal(err)
		fmt.Printf("ddp: pprof on http://%s/debug/pprof/\n", p.Addr())
	}
	// Every job of the repository, so a worker can run any pipeline.
	rpcmr.RegisterJobs(core.JobFactories())
	rpcmr.RegisterJobs(core.HaloJobFactories())
	rpcmr.RegisterJobs(eddpc.JobFactories())
	rpcmr.RegisterJobs(kmeansmr.JobFactories())
	rpcmr.RegisterJobs(knnjoin.JobFactories())
	w, err := rpcmr.StartWorker(*master, *addr)
	fatal(err)
	if *verbose {
		w.Log = log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds).Printf
	}
	fmt.Printf("ddp: worker %d serving on %s (master %s)\n", w.ID(), w.Addr(), *master)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
	w.Close()
}

// buildEngine returns the local engine, or boots a master on listen and
// waits for minWorkers workers; the cleanup closes the master.
func buildEngine(listen string, minWorkers int, wait, monitor time.Duration, verbose bool) (mapreduce.Engine, func()) {
	if listen == "" {
		return &mapreduce.LocalEngine{}, func() {}
	}
	m, err := rpcmr.NewMaster(listen)
	fatal(err)
	m.MonitorInterval = monitor
	if verbose || monitor > 0 {
		m.Log = log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds).Printf
	}
	fmt.Fprintf(os.Stderr, "ddp: master listening on %s; waiting for %d worker(s)...\n", m.Addr(), minWorkers)
	fatal(m.WaitWorkers(minWorkers, wait))
	fmt.Fprintf(os.Stderr, "ddp: %d worker(s) connected\n", m.WorkerCount())
	return m, func() { m.Close() }
}

func readCSV(path, name string, labeled bool) *points.Dataset {
	ds, err := dataset.ReadCSVFile(path, name, labeled)
	fatal(err)
	return ds
}

// writeOut writes through a buffer to path, or to stdout when path is ""
// or "-".
func writeOut(path string, write func(io.Writer) error) {
	f := os.Stdout
	if path != "" && path != "-" {
		var err error
		f, err = os.Create(path)
		fatal(err)
	}
	bw := bufio.NewWriter(f)
	fatal(write(bw))
	fatal(bw.Flush())
	if f != os.Stdout {
		fatal(f.Close())
	}
}

func logStderr(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddp: %v\n", err)
		os.Exit(1)
	}
}
