package experiments

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/obs"
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

// verdictSeeds are the seeds every verdict below holds at.
var verdictSeeds = []int64{1, 2}

// cell returns row's cell under column name.
func cell(t *testing.T, r *Report, row []string, name string) string {
	t.Helper()
	i := slices.Index(r.Columns, name)
	if i < 0 {
		t.Fatalf("report has no column %q: %v", name, r.Columns)
	}
	return row[i]
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestExpFig7: the paper's verdict — one selection box on both decision
// graphs picks the same number of peaks, and the two clusterings agree.
func TestExpFig7(t *testing.T) {
	for _, seed := range verdictSeeds {
		opt := smallOpt()
		opt.Seed = seed
		r, err := ExpFig7(opt)
		checkReport(t, r, err, 2)
		basic, lsh := cell(t, r, r.Rows[0], "peaks-in-box"), cell(t, r, r.Rows[1], "peaks-in-box")
		if basic != lsh {
			t.Errorf("seed %d: the shared box holds %s Basic-DDP peaks and %s LSH-DDP peaks", seed, basic, lsh)
		}
		if !strings.Contains(r.String(), "ARI=1.0000") {
			t.Errorf("seed %d: the two clusterings disagree:\n%s", seed, r)
		}
	}
}

// TestExpFig8: the paper's verdict — DP clusters Aggregation better than
// each of the four baselines — with DP on the ground truth's k clusters and
// its ARI no lower than measured when this test was pinned.
func TestExpFig8(t *testing.T) {
	dpARIFloor := map[int64]float64{1: 0.9513, 2: 0.9696}
	for _, seed := range verdictSeeds {
		r, err := ExpFig8(Options{Scale: 1, Seed: seed, Parallelism: 4})
		checkReport(t, r, err, 5)
		if r.Rows[0][0] != "DP" {
			t.Fatalf("first row is %q, want DP", r.Rows[0][0])
		}
		spec, err := dataset.Get("Aggregation")
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int]bool{}
		for _, l := range spec.Gen(seed).Labels {
			truth[l] = true
		}
		if got := cell(t, r, r.Rows[0], "clusters"); got != strconv.Itoa(len(truth)) {
			t.Errorf("seed %d: DP finds %s clusters, the ground truth has %d", seed, got, len(truth))
		}
		dp := num(t, cell(t, r, r.Rows[0], "ARI"))
		if dp < dpARIFloor[seed] {
			t.Errorf("seed %d: DP's ARI %.4f is below %.4f", seed, dp, dpARIFloor[seed])
		}
		for _, row := range r.Rows[1:] {
			if ari := num(t, cell(t, r, row, "ARI")); ari >= dp {
				t.Errorf("seed %d: %s's ARI %.4f is not below DP's %.4f", seed, row[0], ari, dp)
			}
		}
	}
}

// TestExpFig9: τ₂ ≥ τ₁ on every row, and τ₁ rises with A. τ₂ itself is
// not monotone in A at this scale (seed 1: 0.8145 at A = 0.5, 0.7990 at
// 0.6), so only τ₁'s trend is pinned.
func TestExpFig9(t *testing.T) {
	for _, seed := range verdictSeeds {
		opt := smallOpt()
		opt.Seed = seed
		r, err := ExpFig9(opt)
		checkReport(t, r, err, 7)
		prev := -1.0
		for _, row := range r.Rows {
			tau1, tau2 := num(t, cell(t, r, row, "tau1")), num(t, cell(t, r, row, "tau2"))
			if tau2 < tau1 {
				t.Errorf("seed %d, A=%s: tau2 %.4f below tau1 %.4f", seed, row[0], tau2, tau1)
			}
			if tau1 < prev {
				t.Errorf("seed %d, A=%s: tau1 %.4f fell from %.4f", seed, row[0], tau1, prev)
			}
			prev = tau1
		}
	}
}

// fig10Reports holds ExpFig10 at smallOpt per seed, run once for both of
// its tests.
var fig10Reports = map[int64]*Report{}

func fig10Report(t *testing.T, seed int64) *Report {
	t.Helper()
	if testing.Short() {
		t.Skip("fig10 in -short mode")
	}
	if r := fig10Reports[seed]; r != nil {
		return r
	}
	opt := smallOpt()
	opt.Seed = seed
	r, err := ExpFig10(opt)
	checkReport(t, r, err, 8)
	fig10Reports[seed] = r
	return r
}

// fig10Rows returns r's LSH-DDP rows, in the report's order of growing N.
func fig10Rows(t *testing.T, r *Report) [][]string {
	t.Helper()
	var rows [][]string
	prevN := 0.0
	for _, row := range r.Rows {
		if cell(t, r, row, "algo") != "LSH-DDP" {
			continue
		}
		n := num(t, cell(t, r, row, "N"))
		if n <= prevN {
			t.Fatalf("%s: N %v does not grow from %v", row[0], n, prevN)
		}
		prevN = n
		rows = append(rows, row)
	}
	if len(rows) != 4 {
		t.Fatalf("%d LSH-DDP rows, want 4:\n%s", len(rows), r)
	}
	return rows
}

// ratio parses a report's "%.1fx" ratio cell.
func ratio(t *testing.T, s string) float64 {
	t.Helper()
	return num(t, strings.TrimSuffix(s, "x"))
}

// TestExpFig10: the paper's Fig. 10(c) verdict — LSH-DDP evaluates fewer
// distances than Basic-DDP on all four sets, and the saving grows with N —
// with each set's saving no lower than measured when this test was pinned.
func TestExpFig10(t *testing.T) {
	floors := map[int64][]float64{1: {2.6, 7.1, 10.3, 16.2}, 2: {2.5, 7.0, 7.3, 15.7}}
	for _, seed := range verdictSeeds {
		r := fig10Report(t, seed)
		prev := 1.0
		for x, row := range fig10Rows(t, r) {
			save := ratio(t, cell(t, r, row, "dist-save"))
			if save < floors[seed][x] {
				t.Errorf("seed %d, %s: dist-save %.1fx is below %.1fx", seed, row[0], save, floors[seed][x])
			}
			if save <= prev {
				t.Errorf("seed %d, %s: dist-save %.1fx does not grow from %.1fx", seed, row[0], save, prev)
			}
			prev = save
		}
	}
}

// TestExpFig10ShuffleDoesNotReproduceAtCIScale pins Fig. 10(b) at smallOpt's
// scale, where it reads the other way: LSH-DDP ships a point to up to M = 10
// buckets per LSH job while Basic-DDP's few blocks ship it fewer times, so
// LSH-DDP shuffles more on the three smaller sets and about as much on
// BigCross500K. At scale 1 LSH-DDP ships less on all four (EXPERIMENTS.md).
// A change that moves these ratios should say why.
func TestExpFig10ShuffleDoesNotReproduceAtCIScale(t *testing.T) {
	pinned := map[int64][]string{1: {"0.3x", "0.5x", "0.5x", "1.0x"}, 2: {"0.2x", "0.5x", "0.5x", "1.0x"}}
	for _, seed := range verdictSeeds {
		r := fig10Report(t, seed)
		for x, row := range fig10Rows(t, r) {
			if save := cell(t, r, row, "shuffle-save"); save != pinned[seed][x] {
				t.Errorf("seed %d, %s: shuffle-save %s, was %s", seed, row[0], save, pinned[seed][x])
			}
		}
	}
}

// table4Reports holds ExpTable4 at smallOpt per seed, run once for every
// Table IV test.
var table4Reports = map[int64]*Report{}

func table4Report(t *testing.T, seed int64) *Report {
	t.Helper()
	if r := table4Reports[seed]; r != nil {
		return r
	}
	opt := smallOpt()
	opt.Seed = seed
	r, err := ExpTable4(opt)
	checkReport(t, r, err, 3)
	for x, algo := range []string{"Basic-DDP", "EDDPC", "LSH-DDP"} {
		if r.Rows[x][0] != algo {
			t.Fatalf("row %d is %q, want %s:\n%s", x, r.Rows[x][0], algo, r)
		}
	}
	table4Reports[seed] = r
	return r
}

// table4Column returns column name's cells of the Basic-DDP, EDDPC and
// LSH-DDP rows, in that order, and their values with the unit suffix
// (MB, or a count's k / M) applied.
func table4Column(t *testing.T, r *Report, name string) (cells []string, vals []float64) {
	t.Helper()
	for _, row := range r.Rows[:3] {
		c := cell(t, r, row, name)
		v, mult := strings.TrimSuffix(c, "MB"), 1.0
		switch {
		case strings.HasSuffix(v, "k"):
			v, mult = strings.TrimSuffix(v, "k"), 1e3
		case strings.HasSuffix(v, "M"):
			v, mult = strings.TrimSuffix(v, "M"), 1e6
		}
		cells, vals = append(cells, c), append(vals, num(t, v)*mult)
	}
	return cells, vals
}

func TestExpTable4(t *testing.T) {
	table4Report(t, 1)
}

// TestTableIVDistancesDoNotReproduce pins Table IV's distance column at
// smallOpt's scale. The paper has LSH-DDP evaluating more distances than
// EDDPC; here each co-bucketed pair is evaluated once, runs d_c apart are
// pruned and most δ̂ come from the ρ pass, so LSH-DDP evaluates the fewest:
// LSH-DDP < EDDPC < Basic-DDP. A change that moves these cells should say
// why.
func TestTableIVDistancesDoNotReproduce(t *testing.T) {
	pinned := map[int64][]string{1: {"2.54M", "763.2k", "157.1k"}, 2: {"2.54M", "679.3k", "162.0k"}}
	for _, seed := range verdictSeeds {
		r := table4Report(t, seed)
		cells, d := table4Column(t, r, "dist")
		if !slices.Equal(cells, pinned[seed]) {
			t.Errorf("seed %d: Basic-DDP / EDDPC / LSH-DDP distances %v, were %v", seed, cells, pinned[seed])
		}
		if basic, ed, lsh := d[0], d[1], d[2]; !(lsh < ed && ed < basic) {
			t.Errorf("seed %d: distances %v, want LSH-DDP < EDDPC < Basic-DDP", seed, cells)
		}
	}
}

// TestTableIVShuffleDoesNotReproduceAtCIScale pins Table IV's shuffle
// column at smallOpt's scale. The paper has LSH-DDP shipping far less than
// EDDPC, and at scale 1 LSH-DDP ships less (EXPERIMENTS.md); at 1/16 of
// that the order flips, EDDPC < LSH-DDP, and at seed 2 LSH-DDP ships more
// than Basic-DDP too. A change that moves these cells should say why.
func TestTableIVShuffleDoesNotReproduceAtCIScale(t *testing.T) {
	pinned := map[int64][]string{1: {"3.73MB", "3.06MB", "3.65MB"}, 2: {"3.73MB", "2.82MB", "3.91MB"}}
	for _, seed := range verdictSeeds {
		r := table4Report(t, seed)
		cells, b := table4Column(t, r, "shuffle")
		if !slices.Equal(cells, pinned[seed]) {
			t.Errorf("seed %d: Basic-DDP / EDDPC / LSH-DDP shuffle %v, was %v", seed, cells, pinned[seed])
		}
		basic, ed, lsh := b[0], b[1], b[2]
		if !(ed < lsh) {
			t.Errorf("seed %d: shuffle %v, want EDDPC < LSH-DDP", seed, cells)
		}
		if seed == 2 && !(lsh > basic) {
			t.Errorf("seed %d: shuffle %v, want LSH-DDP > Basic-DDP", seed, cells)
		}
	}
}

// TestExpFig11: under the modeled 30 s start-up per job, K-means passes
// LSH-DDP at iteration J or J+1, where J is LSH-DDP's job count (the d_c
// sample and four jobs, all the trace holds: K-means is not traced). That
// holds whenever LSH-DDP's wall is below 30 s plus J+1 K-means iterations'
// and J-1 iterations take less than it plus 30 s: by orders of magnitude
// at test scale.
func TestExpFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 in -short mode")
	}
	for _, seed := range verdictSeeds {
		opt := smallOpt()
		opt.Seed, opt.Trace = seed, &obs.Trace{}
		r, err := ExpFig11(opt)
		checkReport(t, r, err, 2)
		jobs := len(opt.Trace.Jobs())
		var cross int
		for _, n := range r.Notes {
			fmt.Sscanf(n, "with a modeled 30s Hadoop job-startup overhead per job, the crossover is iteration %d", &cross)
		}
		if cross < jobs || cross > jobs+1 {
			t.Errorf("seed %d: modeled crossover at iteration %d, want %d or %d for LSH-DDP's %d jobs:\n%s", seed, cross, jobs, jobs+1, jobs, r)
		}
	}
}

// TestExpFig12: the cost model ranks the measured grid, and its pick runs
// at a width that meets A = 0.99 — the width the pipeline itself solved
// for that (M, π) on the measured row.
func TestExpFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 in -short mode")
	}
	for _, seed := range verdictSeeds {
		r, err := ExpFig12(Options{Scale: 24, Seed: seed, Parallelism: 4})
		checkReport(t, r, err, 4)
		measured := map[string]bool{}
		var picks [][]string
		for _, row := range r.Rows {
			if cell(t, r, row, "runtime") == "model" {
				picks = append(picks, row)
			} else {
				measured[strings.Join(row[:3], " ")] = true
			}
		}
		if len(picks) == 0 {
			t.Fatalf("seed %d: no cost-model rows:\n%s", seed, r)
		}
		for _, row := range picks {
			if !measured[strings.Join(row[:3], " ")] {
				t.Errorf("seed %d: model row M=%s pi=%s w=%s has no measured row at the same width", seed, row[0], row[1], row[2])
			}
		}
	}
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

// autoK returns each data set's k suggested in the extensions report r.
func autoK(t *testing.T, r *Report) map[string]int {
	t.Helper()
	ks := map[string]int{}
	for _, row := range r.Rows {
		if row[0] == "auto-k" {
			var k, truth int
			if _, err := fmt.Sscanf(cell(t, r, row, "value"), "%d (%d)", &k, &truth); err != nil {
				t.Fatal(err)
			}
			ks[row[1]] = k
		}
	}
	return ks
}

// extReport runs the extensions at scale 1.
func extReport(t *testing.T, seed int64) *Report {
	t.Helper()
	r, err := ExpExtensions(Options{Scale: 1, Seed: seed, Parallelism: 4})
	checkReport(t, r, err, 6)
	return r
}

// TestExpExtensions: the γ-gap knee finds S2's 15 clusters, and the halo
// jobs evaluate fewer distances than the base pipeline whose clustering they
// split: they walk the ρ job's owned, unpruned pairs and skip the
// same-cluster ones.
func TestExpExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions in -short mode")
	}
	for _, seed := range verdictSeeds {
		r := extReport(t, seed)
		if k := autoK(t, r)["S2"]; k != 15 {
			t.Errorf("seed %d: auto-k on S2 is %d, want 15", seed, k)
		}
		x := slices.IndexFunc(r.Rows, func(row []string) bool { return row[2] == "distance computations (halo / base)" })
		if x < 0 {
			t.Fatalf("seed %d: no halo distance row:\n%s", seed, r)
		}
		var halo, base int64
		if _, err := fmt.Sscanf(cell(t, r, r.Rows[x], "value"), "%d / %d", &halo, &base); err != nil {
			t.Fatal(err)
		}
		if halo >= base {
			t.Errorf("seed %d: the halo jobs evaluate %d distances, the base pipeline %d", seed, halo, base)
		}
	}
}

// TestExtAutoKAggregationDoesNotReproduce pins what the γ-gap knee
// suggests on Aggregation, whose truth is 7: 6 at seed 1, 7 at seed 2 (and
// 5 at ddp exp's seed 42). The knee does not reliably find touching
// clusters of very different sizes; a change that moves these counts
// should say why.
func TestExtAutoKAggregationDoesNotReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions in -short mode")
	}
	for seed, want := range map[int64]int{1: 6, 2: 7} {
		if k := autoK(t, extReport(t, seed))["Aggregation"]; k != want {
			t.Errorf("seed %d: auto-k on Aggregation is %d, was %d", seed, k, want)
		}
	}
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
