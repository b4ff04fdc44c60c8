package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// smallOpt shrinks every experiment enough for CI.
func smallOpt() Options { return Options{Scale: 16, Seed: 1, Parallelism: 4} }

func checkReport(t *testing.T, r *Report, err error, wantRows int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < wantRows {
		t.Fatalf("report has %d rows, want >= %d:\n%s", len(r.Rows), wantRows, r)
	}
	s := r.String()
	if !strings.Contains(s, r.Title) {
		t.Fatalf("rendered report missing title:\n%s", s)
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Columns) {
			t.Fatalf("row %v has %d cells for %d columns", row, len(row), len(r.Columns))
		}
	}
}

func TestExpTable2(t *testing.T) {
	r, err := ExpTable2(Options{Seed: 1})
	checkReport(t, r, err, 7)
}

func TestExpFig7(t *testing.T) {
	r, err := ExpFig7(smallOpt())
	checkReport(t, r, err, 2)
}

func TestExpFig8(t *testing.T) {
	r, err := ExpFig8(Options{Scale: 1, Seed: 1, Parallelism: 4})
	checkReport(t, r, err, 5)
}

func TestExpFig9(t *testing.T) {
	r, err := ExpFig9(smallOpt())
	checkReport(t, r, err, 7)
}

func TestExpFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 in -short mode")
	}
	r, err := ExpFig10(smallOpt())
	checkReport(t, r, err, 8)
}

func TestExpTable4(t *testing.T) {
	r, err := ExpTable4(smallOpt())
	checkReport(t, r, err, 3)
}

func TestExpFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 in -short mode")
	}
	r, err := ExpFig11(smallOpt())
	checkReport(t, r, err, 2)
}

func TestExpFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 in -short mode")
	}
	r, err := ExpFig12(Options{Scale: 24, Seed: 1, Parallelism: 4})
	checkReport(t, r, err, 4)
}

func TestExpEC2(t *testing.T) {
	if testing.Short() {
		t.Skip("ec2 in -short mode")
	}
	r, err := ExpEC2(Options{Scale: 24, Seed: 1, Parallelism: 4})
	checkReport(t, r, err, 3)
}

func TestExpAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	r, err := ExpAblation(smallOpt())
	checkReport(t, r, err, 10)
	if strings.Contains(r.String(), "UNEXPECTED") {
		t.Fatalf("ablation surprises:\n%s", r)
	}
}

// TestPerLayoutRhoMatchesRunLSHDDP holds the aggregation ablation's
// sequential per-layout counts to LSH-DDP's ρ̂: their max equals it exactly,
// on the ablation's data at two seeds and on an integer lattice whose pairs
// at exactly d_c must not count.
func TestPerLayoutRhoMatchesRunLSHDDP(t *testing.T) {
	check := func(t *testing.T, ds *points.Dataset, seed int64, dc, w float64) {
		cfg := core.LSHConfig{
			Config: core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 2}, Seed: seed, Dc: dc},
			M:      10, Pi: 3, W: w,
		}
		res, err := core.RunLSHDDP(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := layoutCounts(ds, cfg, res.Rho)
		if err != nil {
			t.Fatal(err)
		}
		// The max must be told apart from any one layout.
		if !slices.ContainsFunc(counts, func(c []float64) bool { return slices.Min(c) != slices.Max(c) }) {
			t.Fatal("every point has the same count under every layout")
		}
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("BigCross500K/seed%d", seed), func(t *testing.T) {
			opt := Options{Scale: 16, Seed: seed}
			ds, err := opt.load("BigCross500K")
			if err != nil {
				t.Fatal(err)
			}
			ds.Points, ds.Labels = ds.Points[:1000], nil
			dc := dp.CutoffByPercentile(ds, 0.02, seed)
			w, err := lsh.SolveWidth(0.99, dc, 3, 10)
			if err != nil {
				t.Fatal(err)
			}
			check(t, ds, seed, dc, w)
		})
	}
	t.Run("lattice", func(t *testing.T) {
		var ds points.Dataset
		for x := range 12 {
			for y := range 12 {
				ds.Points = append(ds.Points, points.Point{ID: int32(len(ds.Points)), Pos: points.Vector{float64(x), float64(y)}})
			}
		}
		check(t, &ds, 1, 2, 4)
	})
}

// TestStrawManClosedForms pins the ablation's closed forms: the stored
// matrix to what the straw-man job it replaced measured, and the naive ρ
// shuffle to its sum over today's point records (the job measured
// 42 890 000 bytes when a point header took 8 bytes).
func TestStrawManClosedForms(t *testing.T) {
	opt := smallOpt()
	ds, err := opt.load("3Dspatial")
	if err != nil {
		t.Fatal(err)
	}
	ds.Points = ds.Points[:1000]
	if got := naiveRhoShuffle(ds); got != 37_762_000 || fmb(got) != "36.01MB" {
		t.Fatalf("naive ρ shuffle of 1 000 3Dspatial points: %d bytes (%s), want 37 762 000", got, fmb(got))
	}
	for _, c := range []struct {
		n                int
		bytes, distances int64
		mb, count        string
	}{
		{1359, 15_686_937, 922_761, "14.96MB", "922.8k"},
		{3000, 76_474_500, 4_498_500, "72.93MB", "4.50M"},
	} {
		bytes, distances := storedMatrix(c.n)
		if bytes != c.bytes || distances != c.distances || fmb(bytes) != c.mb || fcount(distances) != c.count {
			t.Fatalf("stored matrix at N = %d: %d bytes (%s), %d distances (%s); measured %d (%s), %d (%s)",
				c.n, bytes, fmb(bytes), distances, fcount(distances), c.bytes, c.mb, c.distances, c.count)
		}
	}
}

func TestExpExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions in -short mode")
	}
	r, err := ExpExtensions(smallOpt())
	checkReport(t, r, err, 4)
	t.Log("\n" + r.String())
}

func TestReportCSV(t *testing.T) {
	r := &Report{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", "z"}},
	}
	var buf strings.Builder
	if err := r.WriteCSVTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n2,z\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}
