// Command bench is the repository's one benchmark harness: five workloads,
// one result schema, end-to-end metrics measured with tracing off and a
// per-layer budget from a separate traced run. See README.md in this
// directory for the metric tables and how to run it.
//
//	bash bench/run.sh --workload serve-read --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --workload serve-read --seed 1 --seconds 16 --trace 1
//	bash bench/run.sh -agree
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// refSeconds is the --seconds value the fixed work counts are sized for:
// at 16 the timed phase of every workload lasts about 16 s on the reference
// box. Another value scales the counts in proportion; it never turns the
// work into a duration.
const refSeconds = 16

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of the benchmark's contract (BENCHMARK.json).
type metricDef struct {
	Name, Unit string
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool   // ~1/20 sizes and counts: the test suite's scale
	scratch  string // directory for temp files (ingest WAL, spans)
	p        int    // load size, min(nproc, 4)
}

// rows scales a dataset size: full, or 1/20 under -smoke.
func (c runConfig) rows(full int) int {
	if c.smoke {
		return max(full/20, 200)
	}
	return full
}

// reps scales a count of timed reps or segments to --seconds, never below
// floor. The work stays a fixed count; --seconds only chooses how many.
func (c runConfig) reps(full, floor int) int {
	return max(full*c.seconds/refSeconds, floor)
}

// requests scales a request count: full, or 1/20 under -smoke, never below
// floor.
func (c runConfig) requests(full, floor int) int {
	if c.smoke {
		return max(full/20, floor)
	}
	return full
}

// result is what one run of one workload produced.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// info lines are printed above the final JSON line: the issue's
	// per-workload names (job_s, read_qps, write_p50_ms, ...) and sample
	// counts, for a human reader.
	info []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// check records one oracle comparison; a mismatch is a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 10 {
			r.note("ORACLE MISMATCH: "+format, args...)
		}
	}
}

// workloads lists the five workloads in BENCHMARK.json order. A runner
// returns the end-to-end metrics when cfg.trace is false and the per-layer
// metrics when it is true.
var workloads = []struct {
	name string
	run  func(runConfig) (*result, error)
}{
	{"batch-lshddp", runBatchLSHDDP},
	{"batch-knnjoin", runBatchKNNJoin},
	{"serve-read", runServeRead},
	{"serve-mixed", runServeMixed},
	{"fleet-read", runFleetRead},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// finalLine is the contract's last line of standard output.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs a workload and completes its metric set: every metric of the
// selected list is present, and a per-layer metric of a layer the workload
// does not cross reads 0.
func runOne(cfg runConfig) (*result, error) {
	var run func(runConfig) (*result, error)
	for _, w := range workloads {
		if w.name == cfg.workload {
			run = w.run
		}
	}
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := res.metrics[d.Name]
		switch {
		case ok && m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s reported in %q, contract says %q", d.Name, m.Unit, d.Unit)
		case !ok && !cfg.trace:
			return nil, fmt.Errorf("workload %s did not report end-to-end metric %s", cfg.workload, d.Name)
		case !ok:
			m = metric{Unit: d.Unit}
		}
		out[d.Name] = m
	}
	for name := range res.metrics {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("workload %s reported %s, which is not in the contract", cfg.workload, name)
		}
	}
	res.metrics = out
	return res, nil
}

func printResult(cfg runConfig, res *result) error {
	h, err := json.Marshal(host())
	if err != nil {
		return err
	}
	fmt.Printf("bench: workload=%s seed=%d seconds=%d trace=%v smoke=%v host=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke, h)
	for _, line := range res.info {
		fmt.Println("  " + line)
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-36s %16.6g %s\n", name, res.metrics[name].Value, res.metrics[name].Unit)
	}
	line, err := json.Marshal(finalLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: batch-lshddp, batch-knnjoin, serve-read, serve-mixed, fleet-read")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", refSeconds, "timed-phase budget the fixed work counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics and spans")
	flag.BoolVar(&cfg.smoke, "smoke", false, "run at ~1/20 scale (what the tests run)")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for temporary files and the span file")
	agree := flag.Bool("agree", false, "run two sets of every workload back to back and check every end-to-end metric against its bound")
	sets := flag.Int("runs", 3, "with -agree: runs per workload per set")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.p = loadP()
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fatal(err)
	}

	if *agree {
		ok, err := runAgree(cfg, *sets)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := runOne(cfg)
	if err != nil {
		fatal(err)
	}
	if err := printResult(cfg, res); err != nil {
		fatal(err)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

// spanFile is where the traced run writes its spans.
func spanFile(cfg runConfig) string {
	return filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
