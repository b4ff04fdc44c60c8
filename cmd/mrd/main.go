// Command mrd runs the distributed daemons: a MapReduce worker (with every
// job of this repository registered) and the mini-DFS namenode/datanode.
// The MapReduce master is the job's driver, which runs it in-process:
//
//	ddp ... -master-listen :7070 -min-workers 2      # or knn -master-listen
//	mrd worker -master localhost:7070 -addr :0       # repeat per worker
//
// And for the DFS:
//
//	mrd namenode -addr :7080 -replication 2
//	mrd datanode -namenode localhost:7080 -addr :0
//
// Operator tooling (see OPERATIONS.md for the full runbook):
//
//	mrd dfsadmin -namenode localhost:7080 report           # node liveness, replication health, counters
//	mrd dfsadmin -namenode localhost:7080 verify jobs/in   # decode-verify every part under a prefix
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/dfsio"
	"repro/internal/eddpc"
	"repro/internal/kmeansmr"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "worker":
		runWorker(os.Args[2:])
	case "namenode":
		runNameNode(os.Args[2:])
	case "datanode":
		runDataNode(os.Args[2:])
	case "dfsadmin":
		runDFSAdmin(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mrd worker|namenode|datanode|dfsadmin [flags]")
	os.Exit(2)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
}

func runWorker(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	master := fs.String("master", "localhost:7070", "master address")
	addr := fs.String("addr", ":0", "listen address for shuffle fetches")
	verbose := fs.Bool("v", false, "log task events to stderr")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on this address (e.g. :6061; empty = off)")
	fs.Parse(args)
	startPprof(*pprofAddr)
	registerAllJobs()
	w, err := rpcmr.StartWorker(*master, *addr)
	fatal(err)
	if *verbose {
		sink := obs.NewWriterSink(os.Stderr)
		w.Log = func(format string, args ...any) { sink.Event("worker", format, args...) }
	}
	fmt.Printf("mrd: worker %d serving on %s (master %s)\n", w.ID(), w.Addr(), *master)
	waitForSignal()
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

func runNameNode(args []string) {
	fs := flag.NewFlagSet("namenode", flag.ExitOnError)
	addr := fs.String("addr", ":7080", "listen address")
	repl := fs.Int("replication", 2, "block replication factor")
	hbTimeout := fs.Duration("heartbeat-timeout", 3*time.Second, "declare a datanode dead after this long without a heartbeat")
	sweep := fs.Duration("rereplicate", 500*time.Millisecond, "re-replication sweep interval")
	verbose := fs.Bool("v", false, "log liveness and re-replication events to stderr")
	fs.Parse(args)
	opts := dfs.NameNodeOptions{
		Replication:       *repl,
		HeartbeatTimeout:  *hbTimeout,
		ReplicateInterval: *sweep,
	}
	if *verbose {
		opts.Events = obs.NewWriterSink(os.Stderr)
	}
	nn, err := dfs.NewNameNodeOpts(*addr, opts)
	fatal(err)
	fmt.Printf("mrd: namenode listening on %s (replication %d, heartbeat timeout %v)\n", nn.Addr(), *repl, *hbTimeout)
	waitForSignal()
	for name, v := range nn.Counters() {
		fmt.Printf("mrd: %-28s %d\n", name, v)
	}
	nn.Close()
}

func runDataNode(args []string) {
	fs := flag.NewFlagSet("datanode", flag.ExitOnError)
	nameAddr := fs.String("namenode", "localhost:7080", "namenode address")
	addr := fs.String("addr", ":0", "listen address")
	dir := fs.String("dir", "", "store blocks as files under this directory (empty = in memory)")
	heartbeat := fs.Duration("heartbeat", 500*time.Millisecond, "heartbeat + block report interval")
	fs.Parse(args)
	dn, err := dfs.StartDataNodeOpts(*nameAddr, *addr, dfs.DataNodeOptions{
		Dir:               *dir,
		HeartbeatInterval: *heartbeat,
	})
	fatal(err)
	fmt.Printf("mrd: datanode serving on %s (namenode %s)\n", dn.Addr(), *nameAddr)
	waitForSignal()
	dn.Close()
}

func runDFSAdmin(args []string) {
	fs := flag.NewFlagSet("dfsadmin", flag.ExitOnError)
	nameAddr := fs.String("namenode", "localhost:7080", "namenode address")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mrd dfsadmin [-namenode addr] report | verify <prefix>")
		os.Exit(2)
	}
	c, err := dfs.NewClient(*nameAddr)
	fatal(err)
	defer c.Close()
	switch rest[0] {
	case "report":
		rep, err := c.Report()
		fatal(err)
		fmt.Printf("namenode %s: %d files, %d blocks, %d under-replicated\n",
			*nameAddr, rep.Files, rep.Blocks, rep.UnderReplicated)
		for _, node := range rep.Nodes {
			state := "LIVE"
			if !node.Alive {
				state = "DEAD"
			}
			fmt.Printf("  %-22s %-4s blocks=%-6d last heartbeat %dms ago\n",
				node.Addr, state, node.Blocks, node.AgeMS)
		}
		for name, v := range rep.Counters {
			fmt.Printf("  %-28s %d\n", name, v)
		}
		if rep.UnderReplicated > 0 {
			os.Exit(1)
		}
	case "verify":
		if len(rest) != 2 {
			fmt.Fprintln(os.Stderr, "usage: mrd dfsadmin verify <prefix>")
			os.Exit(2)
		}
		parts, records, err := dfsio.VerifyPrefix(c, rest[1])
		fatal(err)
		fmt.Printf("%s: %d parts, %d records, all blocks checksum-clean\n", rest[1], parts, records)
	default:
		fmt.Fprintf(os.Stderr, "mrd dfsadmin: unknown command %q\n", rest[0])
		os.Exit(2)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrd: %v\n", err)
		os.Exit(1)
	}
}
