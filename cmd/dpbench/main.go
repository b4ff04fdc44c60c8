// Command dpbench regenerates the paper's evaluation: every table and
// figure of Section VI plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	dpbench -exp all                 # everything (several minutes)
//	dpbench -exp fig10,table4       # a subset
//	dpbench -exp fig9 -scale 4      # quarter-size data sets
//
// Experiments: table2, fig7, fig8, fig9, fig10, table4, fig11, fig12,
// ec2, ablation, ext.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

var exps = []struct {
	name string
	run  func(experiments.Options) (*experiments.Report, error)
}{
	{"table2", experiments.ExpTable2},
	{"fig7", experiments.ExpFig7},
	{"fig8", experiments.ExpFig8},
	{"fig9", experiments.ExpFig9},
	{"fig10", experiments.ExpFig10},
	{"table4", experiments.ExpTable4},
	{"fig11", experiments.ExpFig11},
	{"fig12", experiments.ExpFig12},
	{"ec2", experiments.ExpEC2},
	{"ablation", experiments.ExpAblation},
	{"ext", experiments.ExpExtensions},
}

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiments to run, or 'all'")
		scale    = flag.Int("scale", 1, "extra divisor on data set sizes (1 = DESIGN.md scale)")
		seed     = flag.Int64("seed", 42, "seed for data generation and algorithms")
		parallel = flag.Int("parallel", 0, "engine parallelism (0 = all cores)")
		verbose  = flag.Bool("v", false, "log per-job progress")
		csvDir   = flag.String("csv", "", "also write each report as CSV into this directory")
		traceOut = flag.String("trace", "", "write a JSONL job trace (task phase spans) to this file")
	)
	flag.Parse()

	opt := experiments.Options{Scale: *scale, Seed: *seed, Parallelism: *parallel}
	if *verbose {
		opt.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var trace *obs.Trace
	if *traceOut != "" {
		trace = &obs.Trace{}
		opt.Trace = trace
	}

	want := map[string]bool{}
	runAll := *expFlag == "all"
	for _, name := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(name)] = true
	}
	known := map[string]bool{}
	for _, e := range exps {
		known[e.name] = true
	}
	for name := range want {
		if name != "all" && !known[name] {
			fmt.Fprintf(os.Stderr, "dpbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	ranAny := false
	for _, e := range exps {
		if !runAll && !want[e.name] {
			continue
		}
		ranAny = true
		start := time.Now()
		report, err := e.run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		report.WriteTo(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.name, report); err != nil {
				fmt.Fprintf(os.Stderr, "dpbench: csv for %s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
	if !ranAny {
		fmt.Fprintln(os.Stderr, "dpbench: nothing to run")
		os.Exit(2)
	}
	if trace != nil {
		if err := writeTrace(*traceOut, trace); err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d job traces)\n", *traceOut, len(trace.Jobs()))
	}
}

// writeTrace stores the collected job traces as JSONL at path.
func writeTrace(path string, trace *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV stores one report as <dir>/<name>.csv.
func writeCSV(dir, name string, report *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := report.WriteCSVTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
