package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.81, 50}, {0.99, 50}, {1, 50},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 50 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even count = %v, want the lower middle value 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// p99 of 1000 samples is the 990th smallest: ten samples lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestQuietEnd(t *testing.T) {
	// Four segments hit by a neighbour move the mean and the median; the
	// quiet end stays with the undisturbed ones.
	qps := []float64{100, 61, 99, 40, 101, 55, 70, 98, 100, 102}
	if got := quiet(qps, true); got != 102 {
		t.Errorf("quiet end of 10 throughputs = %v, want the best, 102", got)
	}
	lat := make([]float64, 20)
	for i := range lat {
		lat[i] = float64(20 - i) // 20, 19, ..., 1
	}
	if got := quiet(lat, false); got != 2 {
		t.Errorf("quiet end of 20 latencies = %v, want the second lowest, 2", got)
	}
	if got := quiet([]float64{7}, false); got != 7 {
		t.Errorf("quiet end of one value = %v, want 7", got)
	}
	got := each([]int{1, 2, 3}, func(v int) float64 { return float64(v * v) })
	if len(got) != 3 || got[2] != 9 {
		t.Errorf("each = %v, want [1 4 9]", got)
	}
}

// The driver measures spread with Python's statistics.quantiles(n=4); these
// are its outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 4, 8, 16, 3, 9, 10, 11, 5}, [3]float64{2.75, 6.5, 10.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 4, 8, 16, 3, 9, 10, 11, 5}); math.Abs(got-7.5/6.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 7.5/6.5)
	}
}

func TestSeedDeterminism(t *testing.T) {
	stream := func(seed int64) uint64 {
		_, ds, dc, err := buildServeModel(2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		return digestVectors(queryStream(ds, dc, 500, seed))
	}
	a, b, c := stream(1), stream(1), stream(2)
	if a != b {
		t.Errorf("same seed gave query-stream digests %x and %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same query-stream digest %x", a)
	}
}

// TestSmokeSuite runs every workload at -smoke scale, timed and traced, so
// that every oracle runs and every metric of the contract is produced.
func TestSmokeSuite(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 1, seconds: refSeconds, trace: trace, smoke: true, scratch: t.TempDir(), p: loadP()}
			res, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, trace, res.failed, res.attempted, res.info)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, contract lists %d", w, trace, len(res.metrics), len(defs))
			}
			if trace {
				if _, err := os.Stat(spanFile(cfg)); err != nil {
					t.Errorf("%s: traced run wrote no span file: %v", w, err)
				}
				continue
			}
			for _, d := range defs {
				if v := res.metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w, d.Name, v)
				}
			}
		}
	}
}

// TestContractMatchesBenchmarkJSON keeps the harness's metric lists, bounds
// and workload names in step with BENCHMARK.json at the repository root.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, harness is sized for %d", file.RunSeconds, refSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, harness has %d", len(got), kind, len(want))
		}
		for i, e := range got {
			if e.Name != want[i].Name || e.Unit != want[i].Unit {
				t.Errorf("%s metric %d is %s [%s], harness has %s [%s]", kind, i, e.Name, e.Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
	for _, e := range file.EndToEnd {
		b := bounds[e.Name]
		if e.Bound != b.share || (e.Better == "higher") != b.higherIsBetter {
			t.Errorf("%s: BENCHMARK.json says bound %v better %s, harness has %+v", e.Name, e.Bound, e.Better, b)
		}
	}
}
