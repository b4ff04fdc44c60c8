package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/mapreduce"
)

// TestMain runs the command itself when the test binary is started as ddp
// by runDDP, and the tests otherwise.
func TestMain(m *testing.M) {
	if os.Getenv("DDP_TEST_AS_COMMAND") == "1" {
		os.Args = append([]string{"ddp"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDDP runs `ddp args...` in a child process and returns its stdout and
// exit code.
func runDDP(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DDP_TEST_AS_COMMAND=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("ddp %s: %v", strings.Join(args, " "), err)
	}
	return string(out), 0
}

// TestExactSharesBasicDc: -algo exact is Basic-DDP's sequential
// counterpart on the same input, so both cluster at the d_c the shared
// sampling job picks — on a set larger than the job's sample, where a
// percentile over other pairs would land elsewhere.
func TestExactSharesBasicDc(t *testing.T) {
	ds := dataset.Blobs("ddp-exact-dc", 1200, 2, 4, 100, 3, 5)
	cfg := core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 2}, Seed: 1}
	ctx := context.Background()
	exact, err := runAlgorithm(ctx, ds, "exact", core.LSHConfig{Config: cfg}, core.BasicConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	basic, err := runAlgorithm(ctx, ds, "basic", core.LSHConfig{Config: cfg}, core.BasicConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Dc != basic.Stats.Dc {
		t.Fatalf("exact clusters at dc=%v, basic at %v", exact.Stats.Dc, basic.Stats.Dc)
	}
	for i := range basic.Rho {
		if exact.Rho[i] != basic.Rho[i] {
			t.Fatalf("rho[%d]: exact %v, basic %v", i, exact.Rho[i], basic.Rho[i])
		}
	}
}

// TestGenSplitThenKnn: `ddp gen -split` writes a query and a base file
// beside -o, and `ddp knn` on them prints exactly what `ddp knn -exact`
// does.
func TestGenSplitThenKnn(t *testing.T) {
	dir := t.TempDir()
	if _, code := runDDP(t, "gen", "-dataset", "S2", "-split", "300:1500", "-seed", "7", "-o", filepath.Join(dir, "pts.csv")); code != 0 {
		t.Fatalf("gen exited %d", code)
	}
	r, s := filepath.Join(dir, "pts-R.csv"), filepath.Join(dir, "pts-S.csv")
	join := []string{"knn", "-r", r, "-s", s, "-labeled", "-k", "5"}
	got, code := runDDP(t, join...)
	if code != 0 {
		t.Fatalf("knn exited %d", code)
	}
	want, code := runDDP(t, append(join, "-exact")...)
	if code != 0 {
		t.Fatalf("knn -exact exited %d", code)
	}
	if lines := strings.Count(got, "\n"); lines != 300*5 {
		t.Fatalf("knn printed %d lines, want 300 queries × 5", lines)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d: knn %q, knn -exact %q", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("knn printed %d lines, knn -exact %d", len(gotLines), len(wantLines))
	}
}

// TestUnknownSubcommand: a first argument that is neither a flag nor a
// subcommand is a usage error.
func TestUnknownSubcommand(t *testing.T) {
	if _, code := runDDP(t, "nosuch"); code != 2 {
		t.Fatalf("ddp nosuch exited %d, want 2", code)
	}
}

// TestNegativeFlagsRefused: 0 asks for a default, and a negative, NaN or
// infinite value fails the run instead of quietly running the defaults (or
// running at d_c = +Inf) — with exit code 2, before ddp reads its input or
// awaits a worker: a missing input file is never opened. An experiment name
// `ddp exp` does not know is refused with 2 too.
func TestNegativeFlagsRefused(t *testing.T) {
	dir := t.TempDir()
	agg, pts := filepath.Join(dir, "agg.csv"), filepath.Join(dir, "pts.csv")
	if _, code := runDDP(t, "gen", "-dataset", "Aggregation", "-o", agg); code != 0 {
		t.Fatalf("gen exited %d", code)
	}
	if _, code := runDDP(t, "gen", "-dataset", "S2", "-split", "100:400", "-o", pts); code != 0 {
		t.Fatalf("gen -split exited %d", code)
	}
	cluster := []string{"-input", agg, "-labeled", "-out", filepath.Join(dir, "labels.csv")}
	knn := []string{"knn", "-r", filepath.Join(dir, "pts-R.csv"), "-s", filepath.Join(dir, "pts-S.csv"), "-labeled", "-k", "3", "-out", filepath.Join(dir, "knn.csv")}
	for _, c := range []struct {
		args []string
		code int
	}{
		{append(cluster, "-accuracy", "-0.5"), 2},
		{append(cluster, "-m", "-2"), 2},
		{append(cluster, "-pi", "-1"), 2},
		{append(cluster, "-dc", "-1"), 2},
		{append(cluster, "-k", "-3"), 2},
		{append(cluster, "-rho-min", "-1"), 2},
		{append(cluster, "-delta-min", "-1"), 2},
		{append(cluster, "-algo", "basic", "-block", "-5"), 2},
		{append(cluster, "-accuracy", "NaN"), 2},
		{append(cluster, "-dc", "NaN"), 2},
		{append(cluster, "-dc", "Inf"), 2},
		{append(cluster, "-rho-min", "NaN"), 2},
		{append(cluster, "-rho-min", "Inf"), 2},
		{append(cluster, "-delta-min", "NaN"), 2},
		{append(cluster, "-delta-min", "Inf"), 2},
		{append(knn, "-m", "-3"), 2},
		{append(knn, "-pi", "-2"), 2},
		{append(knn, "-accuracy", "-1"), 2},
		{append(knn, "-w", "-5"), 2},
		{append(knn, "-accuracy", "NaN"), 2},
		{append(knn, "-accuracy", "Inf"), 2},
		{append(knn, "-accuracy", "1"), 2},
		{append(knn, "-accuracy", "1.5"), 2},
		{append(knn, "-w", "NaN"), 2},
		{append(knn, "-w", "Inf"), 2},
		{[]string{"-input", filepath.Join(dir, "missing.csv"), "-accuracy", "1.5", "-master-listen", "127.0.0.1:0"}, 2},
		{[]string{"knn", "-r", filepath.Join(dir, "missing.csv"), "-s", filepath.Join(dir, "missing.csv"), "-m", "-3"}, 2},
		{[]string{"gen", "-dataset", "S2", "-o", filepath.Join(dir, "n.csv"), "-n", "-5"}, 2},
		{[]string{"exp", "-scale", "-4", "table2"}, 2},
		{[]string{"exp", "-parallel", "-3", "table2"}, 2},
		{[]string{"exp", "table2", "nosuch"}, 2},
	} {
		if _, code := runDDP(t, c.args...); code != c.code {
			t.Errorf("ddp %s exited %d, want %d", strings.Join(c.args[len(c.args)-2:], " "), code, c.code)
		}
	}
}

// TestGenKeepsEveryLabel: `ddp gen -n` and `-split` keep an evenly strided
// subset, so a small file still holds every ground-truth cluster of a set
// whose generator emits them one after another (a prefix of 200 Aggregation
// points holds 2 of its 7).
func TestGenKeepsEveryLabel(t *testing.T) {
	dir := t.TempDir()
	labels := func(paths ...string) (n int, distinct map[int]bool) {
		distinct = map[int]bool{}
		for _, path := range paths {
			ds, err := dataset.ReadCSVFile(path, "gen", true)
			if err != nil {
				t.Fatal(err)
			}
			n += ds.N()
			for _, l := range ds.Labels {
				distinct[l] = true
			}
		}
		return n, distinct
	}
	one, pair := filepath.Join(dir, "agg.csv"), filepath.Join(dir, "pair.csv")
	for _, args := range [][]string{
		{"gen", "-dataset", "Aggregation", "-n", "200", "-o", one},
		{"gen", "-dataset", "Aggregation", "-split", "50:150", "-o", pair},
	} {
		if _, code := runDDP(t, args...); code != 0 {
			t.Fatalf("ddp %s exited %d", strings.Join(args, " "), code)
		}
	}
	for what, paths := range map[string][]string{
		"-n 200":        {one},
		"-split 50:150": {filepath.Join(dir, "pair-R.csv"), filepath.Join(dir, "pair-S.csv")},
	} {
		if n, got := labels(paths...); n != 200 || len(got) != 7 {
			t.Errorf("gen %s: %d points with %d of 7 labels, want 200 with 7", what, n, len(got))
		}
	}
}

// TestExpWritesReportAndCSV: `ddp exp -csv <dir> table2` prints
// experiments.ExpTable2's report at the default seed, then its completion
// line, and writes the same report as <dir>/table2.csv.
func TestExpWritesReportAndCSV(t *testing.T) {
	dir := t.TempDir()
	out, code := runDDP(t, "exp", "-csv", dir, "table2")
	if code != 0 {
		t.Fatalf("ddp exp exited %d", code)
	}
	r, err := experiments.ExpTable2(experiments.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	report, done, _ := strings.Cut(out, "[table2 completed in ")
	if report != r.String() || !strings.HasSuffix(done, "s]\n\n") {
		t.Fatalf("ddp exp table2 printed\n%s\nwant the report\n%s\nand its completion line", out, r)
	}
	var want strings.Builder
	if err := r.WriteCSVTo(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("table2.csv holds\n%s\nwant\n%s", got, want.String())
	}
}
