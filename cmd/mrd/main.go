// Command mrd runs a MapReduce worker with every job of this repository
// registered. The MapReduce master is the job's driver, which runs it
// in-process and hands the workers their input splits:
//
//	ddp ... -master-listen :7070 -min-workers 2      # or knn -master-listen
//	mrd worker -master localhost:7070 -addr :7171    # repeat per worker
//
// A worker opens one socket, the -addr listener other workers fetch map
// outputs from; it calls the master and the master never calls it.
//
// See OPERATIONS.md for the full runbook.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/eddpc"
	"repro/internal/kmeansmr"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "worker" {
		fmt.Fprintln(os.Stderr, "usage: mrd worker [flags]")
		os.Exit(2)
	}
	runWorker(os.Args[2:])
}

func runWorker(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	master := fs.String("master", "localhost:7070", "master address")
	addr := fs.String("addr", ":0", "listen address for shuffle fetches, the worker's only socket (:0 = any port)")
	verbose := fs.Bool("v", false, "log task events to stderr")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on this address (e.g. :6061; empty = off)")
	fs.Parse(args)
	startPprof(*pprofAddr)
	registerAllJobs()
	w, err := rpcmr.StartWorker(*master, *addr)
	fatal(err)
	if *verbose {
		w.Log = log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds).Printf
	}
	fmt.Printf("mrd: worker %d serving on %s (master %s)\n", w.ID(), w.Addr(), *master)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
	w.Close()
}

// startPprof optionally exposes the profiling endpoints for this daemon.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	p, err := obs.StartPprof(addr)
	fatal(err)
	fmt.Printf("mrd: pprof on http://%s/debug/pprof/\n", p.Addr())
}

// registerAllJobs installs every job factory in the repository so a worker
// can execute any pipeline.
func registerAllJobs() {
	rpcmr.RegisterJobs(core.JobFactories())
	rpcmr.RegisterJobs(core.HaloJobFactories())
	rpcmr.RegisterJobs(eddpc.JobFactories())
	rpcmr.RegisterJobs(kmeansmr.JobFactories())
	rpcmr.RegisterJobs(knnjoin.JobFactories())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrd: %v\n", err)
		os.Exit(1)
	}
}
