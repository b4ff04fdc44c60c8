// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI). Each Exp* function runs one experiment and
// returns a Report whose rows mirror what the paper plots; All lists them
// for `ddp exp`, which prints them, and bench_test.go, which benchmarks them.
//
// Dataset sizes are the scaled Table II sizes from DESIGN.md; Options.Scale
// divides them further (benchmarks use Scale 4–8 to keep `go test -bench`
// runs short). EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knob"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/points"
)

// All lists every experiment under the name `ddp exp` takes, in the
// order it runs them.
var All = []struct {
	Name string
	Run  func(Options) (*Report, error)
}{
	{"table2", ExpTable2},
	{"fig7", ExpFig7},
	{"fig8", ExpFig8},
	{"fig9", ExpFig9},
	{"fig10", ExpFig10},
	{"table4", ExpTable4},
	{"fig11", ExpFig11},
	{"fig12", ExpFig12},
	{"ec2", ExpEC2},
	{"ablation", ExpAblation},
	{"ext", ExpExtensions},
}

// Options configures an experiment run.
type Options struct {
	// Scale additionally divides every data set size (1 = the DESIGN.md
	// experiment scale).
	Scale int
	// Seed drives dataset generation and all algorithm randomness.
	Seed int64
	// Parallelism bounds engine workers; 0 uses all cores.
	Parallelism int
	// Log receives progress lines when non-nil.
	Log func(format string, args ...any)
	// Trace, when non-nil, collects the structured trace of every
	// MapReduce job the experiments run (wire it to a -trace flag).
	Trace *obs.Trace
}

// Validate refuses a negative Scale or Parallelism (internal/knob).
func (o *Options) Validate() error {
	return cmp.Or(knob.Count("experiments: Scale", o.Scale), knob.Count("experiments: Parallelism", o.Parallelism))
}

func (o *Options) scale() int {
	if o.Scale > 0 {
		return o.Scale
	}
	return 1
}

func (o *Options) engine() mapreduce.Engine {
	return &mapreduce.LocalEngine{Parallelism: o.Parallelism}
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// load generates a registry data set at the option scale: N/scale points
// (at least 64), strided so every ground-truth cluster survives.
func (o *Options) load(name string) (*points.Dataset, error) {
	spec, err := dataset.Get(name)
	if err != nil {
		return nil, err
	}
	ds := spec.Gen(o.Seed)
	return dataset.Subsample(ds, max(ds.N()/o.scale(), 64)), nil
}

// Report is a printable experiment result: a header, column names, and
// rows of formatted cells.
type Report struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// WriteTo renders the report as an aligned text table.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

// formatting helpers shared by the experiments.

func fsec(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

func fmb(bytes int64) string { return fmt.Sprintf("%.2fMB", float64(bytes)/(1<<20)) }

func fcount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func fratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

// lshConfig is the paper's standard LSH-DDP setting (Section VI-D):
// A = 0.99, M = 10, π = 3.
func (o *Options) lshConfig(eng mapreduce.Engine) core.LSHConfig {
	return core.LSHConfig{
		Config:   core.Config{Engine: eng, Seed: o.Seed, Trace: o.Trace},
		Accuracy: 0.99,
		M:        10,
		Pi:       3,
	}
}

// basicConfig is the paper's Basic-DDP setting (block size 500).
func (o *Options) basicConfig(eng mapreduce.Engine) core.BasicConfig {
	return core.BasicConfig{
		Config:    core.Config{Engine: eng, Seed: o.Seed, Trace: o.Trace},
		BlockSize: 500,
	}
}

// WriteCSVTo renders the report as CSV (header row, then data rows) for
// machine consumption — plotting scripts regenerate the paper's figures
// from these files.
func (r *Report) WriteCSVTo(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
