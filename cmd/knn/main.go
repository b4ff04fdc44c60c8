// Command knn runs the distributed kNN-join.
//
// Usage:
//
//	knn join -r queries.csv -s base.csv -k 10 -out neighbors.csv
//	knn join -r queries.csv -s base.csv -k 10 -exact      # exact-job oracle
//
// It runs on the local multicore engine by default; with -master-listen it
// becomes a MapReduce master and waits for mrd workers, exactly like ddp:
//
//	knn join -r q.csv -s b.csv -k 10 -master-listen :7070 -min-workers 2
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/mapreduce/rpcmr"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "join":
		runJoin(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: knn join [flags]")
	os.Exit(2)
}

func runJoin(args []string) {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
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
		masterListen = fs.String("master-listen", "", "run distributed: listen for mrd workers here")
		minWorkers   = fs.Int("min-workers", 1, "distributed: wait for at least this many workers")
		workerWait   = fs.Duration("worker-wait", time.Minute, "distributed: how long to wait for workers")
	)
	fs.Parse(args)
	if *rFile == "" || *sFile == "" {
		fatal(fmt.Errorf("join needs -r and -s"))
	}
	R, err := dataset.ReadCSVFile(*rFile, "R", *labeled)
	fatal(err)
	S, err := dataset.ReadCSVFile(*sFile, "S", *labeled)
	fatal(err)

	cfg := knnjoin.Config{M: *m, Pi: *pi, W: *w, Accuracy: *accuracy, Seed: *seed}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var eng mapreduce.Engine = &mapreduce.LocalEngine{}
	if *masterListen != "" {
		master, err := rpcmr.NewMaster(*masterListen)
		fatal(err)
		defer master.Close()
		if *verbose {
			master.Log = log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds).Printf
		}
		fmt.Fprintf(os.Stderr, "knn: master on %s; waiting for %d worker(s)...\n", master.Addr(), *minWorkers)
		if err := master.WaitWorkers(*minWorkers, *workerWait); err != nil {
			master.Close()
			fatal(err)
		}
		eng = master
	}
	sess := dag.NewSession(eng, dag.Options{})
	var res *knnjoin.Result
	if *exact {
		res, err = knnjoin.RunExact(context.Background(), sess, R, S, *k, cfg)
	} else {
		res, err = knnjoin.Run(context.Background(), sess, R, S, *k, cfg)
	}
	fatal(err)

	dst := os.Stdout
	if *out != "" && *out != "-" {
		dst, err = os.Create(*out)
		fatal(err)
	}
	bw := bufio.NewWriter(dst)
	for qid, ns := range res.Neighbors {
		for rank, n := range ns {
			fmt.Fprintf(bw, "%d,%d,%d,%g\n", qid, rank, n.ID, n.D2)
		}
	}
	fatal(bw.Flush())
	if dst != os.Stdout {
		fatal(dst.Close())
	}
	fmt.Fprintf(os.Stderr, "knn: joined %d queries against %d base points (k=%d, %d fallbacks, %d distance computations)\n",
		R.N(), S.N(), *k, res.Fallbacks, res.Stats.DistanceComputations)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "knn: %v\n", err)
		os.Exit(1)
	}
}
