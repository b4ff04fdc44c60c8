// Command knn runs the distributed kNN-join and the workloads built on it.
//
// Usage:
//
//	knn join -r queries.csv -s base.csv -k 10 -out neighbors.csv
//	knn join -r queries.csv -s base.csv -k 10 -exact      # broadcast oracle
//	knn outliers -input points.csv -k 5 -top 20
//	knn kdist -input points.csv -k 4 -out curve.csv       # DBSCAN eps curve
//	knn score -input points.csv -centroids centers.csv -out assign.csv
//
// Every subcommand runs on the local multicore engine by default; with
// -master-listen it becomes a MapReduce master and waits for mrd workers,
// exactly like ddp:
//
//	knn join -r q.csv -s b.csv -k 10 -master-listen :7070 -min-workers 2
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "join":
		runJoin(os.Args[2:])
	case "outliers":
		runOutliers(os.Args[2:])
	case "kdist":
		runKDist(os.Args[2:])
	case "score":
		runScore(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: knn <join|outliers|kdist|score> [flags]")
	os.Exit(2)
}

// joinFlags carries the flags every subcommand shares.
type joinFlags struct {
	fs       *flag.FlagSet
	k        *int
	m        *int
	pi       *int
	w        *float64
	accuracy *float64
	seed     *int64
	reduces  *int
	verbose  *bool
	out      *string

	masterListen *string
	minWorkers   *int
	workerWait   *time.Duration
}

func newJoinFlags(name string) *joinFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &joinFlags{
		fs:           fs,
		k:            fs.Int("k", 10, "neighbors per query"),
		m:            fs.Int("m", 8, "LSH layouts M"),
		pi:           fs.Int("pi", 4, "hash functions per layout"),
		w:            fs.Float64("w", 0, "LSH slot width (0 = solve from -accuracy)"),
		accuracy:     fs.Float64("accuracy", 0.9, "target bucket accuracy when solving the width"),
		seed:         fs.Int64("seed", 1, "layout / sampling seed"),
		reduces:      fs.Int("reduces", 0, "reduce partitions (0 = one per worker)"),
		verbose:      fs.Bool("v", false, "log per-pass progress"),
		out:          fs.String("out", "", "output CSV ('' or '-' = stdout)"),
		masterListen: fs.String("master-listen", "", "run distributed: listen for mrd workers here"),
		minWorkers:   fs.Int("min-workers", 1, "distributed: wait for at least this many workers"),
		workerWait:   fs.Duration("worker-wait", time.Minute, "distributed: how long to wait for workers"),
	}
}

func (jf *joinFlags) config() knnjoin.Config {
	cfg := knnjoin.Config{
		M:          *jf.m,
		Pi:         *jf.pi,
		W:          *jf.w,
		Accuracy:   *jf.accuracy,
		Seed:       *jf.seed,
		NumReduces: *jf.reduces,
	}
	if *jf.verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return cfg
}

// session builds the DAG session for the selected engine. The cleanup
// closes the master when distributed.
func (jf *joinFlags) session() (*dag.Session, func()) {
	if *jf.masterListen == "" {
		return dag.NewSession(&mapreduce.LocalEngine{}, dag.Options{}), func() {}
	}
	m, err := rpcmr.NewMaster(*jf.masterListen)
	fatal(err)
	if *jf.verbose {
		m.Events = obs.NewWriterSink(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "knn: master on %s; waiting for %d worker(s)...\n", m.Addr(), *jf.minWorkers)
	if err := m.WaitWorkers(*jf.minWorkers, *jf.workerWait); err != nil {
		m.Close()
		fatal(err)
	}
	return dag.NewSession(m, dag.Options{}), func() { m.Close() }
}

func (jf *joinFlags) output() (io.Writer, func()) {
	if *jf.out == "" || *jf.out == "-" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(*jf.out)
	fatal(err)
	return f, func() { fatal(f.Close()) }
}

func runJoin(args []string) {
	jf := newJoinFlags("join")
	rFile := jf.fs.String("r", "", "query-side CSV (required)")
	sFile := jf.fs.String("s", "", "base-side CSV (required)")
	labeled := jf.fs.Bool("labeled", false, "treat the last CSV column as a label to ignore")
	exact := jf.fs.Bool("exact", false, "run the broadcast-naive exact join instead of the bucketed one")
	jf.fs.Parse(args)
	if *rFile == "" || *sFile == "" {
		fatal(fmt.Errorf("join needs -r and -s"))
	}
	R, err := dataset.ReadCSVFile(*rFile, "R", *labeled)
	fatal(err)
	S, err := dataset.ReadCSVFile(*sFile, "S", *labeled)
	fatal(err)

	sess, cleanup := jf.session()
	defer cleanup()
	var res *knnjoin.Result
	if *exact {
		res, err = knnjoin.RunExact(context.Background(), sess, R, S, *jf.k, jf.config())
	} else {
		res, err = knnjoin.Run(context.Background(), sess, R, S, *jf.k, jf.config())
	}
	fatal(err)

	w, done := jf.output()
	bw := bufio.NewWriter(w)
	for qid, ns := range res.Neighbors {
		for rank, n := range ns {
			fmt.Fprintf(bw, "%d,%d,%d,%g\n", qid, rank, n.ID, n.D2)
		}
	}
	fatal(bw.Flush())
	done()
	fmt.Fprintf(os.Stderr, "knn: joined %d queries against %d base points (k=%d, %d fallbacks, %d distance computations)\n",
		R.N(), S.N(), *jf.k, res.Fallbacks, res.Stats.DistanceComputations)
}

func runOutliers(args []string) {
	jf := newJoinFlags("outliers")
	input := jf.fs.String("input", "", "input CSV (required)")
	labeled := jf.fs.Bool("labeled", false, "treat the last CSV column as a label to ignore")
	top := jf.fs.Int("top", 10, "how many outliers to report")
	jf.fs.Parse(args)
	if *input == "" {
		fatal(fmt.Errorf("outliers needs -input"))
	}
	ds, err := dataset.ReadCSVFile(*input, "input", *labeled)
	fatal(err)

	sess, cleanup := jf.session()
	defer cleanup()
	outs, res, err := knnjoin.Outliers(context.Background(), sess, ds, *jf.k, *top, jf.config())
	fatal(err)

	w, done := jf.output()
	bw := bufio.NewWriter(w)
	for _, o := range outs {
		fmt.Fprintf(bw, "%d,%g\n", o.ID, o.KDist)
	}
	fatal(bw.Flush())
	done()
	fmt.Fprintf(os.Stderr, "knn: ranked %d points by %d-distance (%d fallbacks)\n", ds.N(), *jf.k, res.Fallbacks)
}

func runKDist(args []string) {
	jf := newJoinFlags("kdist")
	input := jf.fs.String("input", "", "input CSV (required)")
	labeled := jf.fs.Bool("labeled", false, "treat the last CSV column as a label to ignore")
	jf.fs.Parse(args)
	if *input == "" {
		fatal(fmt.Errorf("kdist needs -input"))
	}
	ds, err := dataset.ReadCSVFile(*input, "input", *labeled)
	fatal(err)

	sess, cleanup := jf.session()
	defer cleanup()
	prof, res, err := knnjoin.KDistanceProfile(context.Background(), sess, ds, *jf.k, jf.config())
	fatal(err)

	w, done := jf.output()
	bw := bufio.NewWriter(w)
	for i, d := range prof.Sorted {
		fmt.Fprintf(bw, "%d,%g\n", i, d)
	}
	fatal(bw.Flush())
	done()
	fmt.Fprintf(os.Stderr, "knn: %d-distance curve over %d points, suggested eps %g (%d fallbacks)\n",
		*jf.k, ds.N(), prof.SuggestEps(), res.Fallbacks)
}

func runScore(args []string) {
	jf := newJoinFlags("score")
	input := jf.fs.String("input", "", "input CSV (required)")
	centFile := jf.fs.String("centroids", "", "centroid CSV (required)")
	labeled := jf.fs.Bool("labeled", false, "treat the last CSV column as a label to ignore")
	jf.fs.Parse(args)
	if *input == "" || *centFile == "" {
		fatal(fmt.Errorf("score needs -input and -centroids"))
	}
	ds, err := dataset.ReadCSVFile(*input, "input", *labeled)
	fatal(err)
	cents, err := dataset.ReadCSVFile(*centFile, "centroids", *labeled)
	fatal(err)

	sess, cleanup := jf.session()
	defer cleanup()
	assign, dist, _, err := knnjoin.ScoreNearestCentroid(context.Background(), sess, ds, cents, jf.config())
	fatal(err)

	w, done := jf.output()
	bw := bufio.NewWriter(w)
	for i := range assign {
		fmt.Fprintf(bw, "%d,%d,%g\n", i, assign[i], dist[i])
	}
	fatal(bw.Flush())
	done()
	fmt.Fprintf(os.Stderr, "knn: scored %d points against %d centroids\n", ds.N(), cents.N())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "knn: %v\n", err)
		os.Exit(1)
	}
}

// registerAll makes the join jobs available when this process acts as
// master for mrd workers.
func init() {
	rpcmr.RegisterJobs(knnjoin.JobFactories())
}
