package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
)

// TestAggregationShipsOneRecordPerKey: the ρ̂ and δ̂ aggregations read their
// input grouped by key (mapreduce.SortByIDKey), so a map task's combiner
// folds all of a key's partials it holds, and the shuffle carries at most
// one record per key, plus one more for each map split boundary that cuts
// a key. A reduce emits one record per key, so the job's output counts
// the keys.
func TestAggregationShipsOneRecordPerKey(t *testing.T) {
	type engine struct {
		name string
		eng  mapreduce.Engine
		maps int64
	}
	engines := []engine{
		{"local/P=1", &mapreduce.LocalEngine{Parallelism: 1}, 1},
		{"local/P=3", &mapreduce.LocalEngine{Parallelism: 3}, 3},
	}
	if !testing.Short() {
		rpcmr.RegisterJobs(JobFactories())
		master, err := rpcmr.NewMaster("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer master.Close()
		for range 3 {
			w, err := rpcmr.StartWorker(master.Addr(), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
		}
		engines = append(engines, engine{"rpcmr/3 workers", master, 6}) // two map tasks per worker
	}
	ds := dataset.Blobs("agg-shuffle", 900, 4, 4, 220, 2, 11)
	for _, e := range engines {
		res, err := RunLSHDDP(context.Background(), ds, LSHConfig{Config: Config{Engine: e.eng, Seed: 7}, M: 8, Pi: 3})
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, j := range res.Stats.Jobs {
			if j.Name != JobLSHRhoAgg && j.Name != JobLSHDelAgg {
				continue
			}
			checked++
			keys := int64(j.Records)
			if got := j.Counters[mapreduce.CtrShuffleRecords]; got > keys+e.maps-1 {
				t.Errorf("%s %s: %d shuffled records for %d keys over %d map tasks, want at most %d",
					e.name, j.Name, got, keys, e.maps, keys+e.maps-1)
			}
		}
		if checked != 2 {
			t.Fatalf("%s: %d aggregation jobs ran, want 2", e.name, checked)
		}
	}
}

func TestLSHDDPRhoNeverOvercounts(t *testing.T) {
	ds := dataset.Blobs("lsh-rho-under", 500, 4, 5, 100, 4, 21)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref := exactReference(t, ds, dc)

	res, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config:   Config{Engine: testEngine(), Dc: dc, Seed: 9},
		Accuracy: 0.9, M: 5, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Rho {
		if res.Rho[i] > ref.Rho[i] {
			t.Fatalf("rho_hat[%d] = %v exceeds exact %v", i, res.Rho[i], ref.Rho[i])
		}
	}
}

func TestLSHDDPDeltaNeverUndershoots(t *testing.T) {
	// When ρ̂ = ρ for all points, each local δ̂ is a min over a subset of
	// the true candidate set, so δ̂ ≥ δ pointwise. Force exact ρ̂ by using
	// a huge width (one partition per layout ⇒ exact).
	ds := dataset.Blobs("lsh-delta-over", 300, 3, 3, 50, 3, 33)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref := exactReference(t, ds, dc)

	res, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config: Config{Engine: testEngine(), Dc: dc, Seed: 4},
		M:      3, Pi: 2, W: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Rho {
		if res.Rho[i] != ref.Rho[i] {
			t.Fatalf("with one partition per layout rho must be exact: rho[%d]=%v want %v", i, res.Rho[i], ref.Rho[i])
		}
		if res.Delta[i]-ref.Delta[i] < -1e-9 {
			t.Fatalf("delta_hat[%d] = %v below exact %v", i, res.Delta[i], ref.Delta[i])
		}
	}
}

func TestLSHDDPExactWithGiantWidth(t *testing.T) {
	// One partition per layout makes LSH-DDP exact except for the absolute
	// peak's δ: the paper assigns the local peak δ̂ = ∞ rather than the max
	// distance, rectified later. Everything else must match sequential DP.
	ds := dataset.Blobs("lsh-exact", 250, 2, 3, 60, 2.5, 5)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref := exactReference(t, ds, dc)

	res, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config: Config{Engine: testEngine(), Dc: dc, Seed: 8},
		M:      2, Pi: 1, W: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Rho {
		if res.Rho[i] != ref.Rho[i] {
			t.Fatalf("rho[%d] = %v, want %v", i, res.Rho[i], ref.Rho[i])
		}
		if ref.Upslope[i] == -1 {
			if !math.IsInf(res.Delta[i], 1) || res.Upslope[i] != -1 {
				t.Fatalf("absolute peak %d: delta=%v upslope=%d, want +Inf/-1", i, res.Delta[i], res.Upslope[i])
			}
			continue
		}
		if math.Abs(res.Delta[i]-ref.Delta[i]) > 1e-9 {
			t.Fatalf("delta[%d] = %v, want %v", i, res.Delta[i], ref.Delta[i])
		}
		if res.Upslope[i] != ref.Upslope[i] {
			t.Fatalf("upslope[%d] = %d, want %d", i, res.Upslope[i], ref.Upslope[i])
		}
	}
}

func TestLSHDDPHighAccuracyApproximation(t *testing.T) {
	ds := dataset.Blobs("lsh-acc", 1000, 3, 5, 100, 3, 17)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	ref := exactReference(t, ds, dc)

	res, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config:   Config{Engine: testEngine(), Dc: dc, Seed: 2},
		Accuracy: 0.99, M: 10, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// τ₁: fraction of exactly recovered ρ. Theorem 1 targets 0.99, but its
	// Lemma 1 treats the projections of all neighbours through a single
	// Gaussian draw, so on data with many d_c-neighbours the realized τ₁
	// sits below A. Assert it stays high, and that the error metric τ₂
	// (which the paper reports stabilizing near 1) is very close to 1.
	exact := 0
	var absErr, rhoSum float64
	for i := range ref.Rho {
		if res.Rho[i] == ref.Rho[i] {
			exact++
		}
		absErr += math.Abs(res.Rho[i] - ref.Rho[i])
		rhoSum += ref.Rho[i]
	}
	tau1 := float64(exact) / float64(ds.N())
	tau2 := 1 - absErr/rhoSum
	if tau1 < 0.80 {
		t.Fatalf("tau1 = %.4f, want >= 0.80 at A=0.99", tau1)
	}
	if tau2 < 0.97 {
		t.Fatalf("tau2 = %.4f, want >= 0.97 at A=0.99", tau2)
	}
}

func TestLSHDDPDeterministicAcrossRuns(t *testing.T) {
	ds := dataset.Blobs("lsh-det", 400, 5, 4, 80, 3, 23)
	cfg := LSHConfig{
		Config:   Config{Engine: testEngine(), Seed: 77},
		Accuracy: 0.95, M: 6, Pi: 3,
	}
	a, err := RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rho {
		if a.Rho[i] != b.Rho[i] || a.Delta[i] != b.Delta[i] || a.Upslope[i] != b.Upslope[i] {
			t.Fatalf("nondeterministic result at %d: (%v,%v,%d) vs (%v,%v,%d)",
				i, a.Rho[i], a.Delta[i], a.Upslope[i], b.Rho[i], b.Delta[i], b.Upslope[i])
		}
	}
	if a.Stats.Dc != b.Stats.Dc || a.Stats.W != b.Stats.W {
		t.Fatalf("nondeterministic parameters: dc %v vs %v, w %v vs %v", a.Stats.Dc, b.Stats.Dc, a.Stats.W, b.Stats.W)
	}
}

func TestLSHDDPShuffleCheaperThanBasic(t *testing.T) {
	ds := dataset.Blobs("lsh-vs-basic-cost", 2000, 8, 6, 120, 3, 31)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	// Block size 50 gives n=40 blocks, so Basic-DDP shuffles each point
	// ~20 times per job vs LSH-DDP's M=10; at the paper's scale (N=500k,
	// block 500 ⇒ n=1000) the gap is far larger.
	basic, err := RunBasicDDP(context.Background(), ds, BasicConfig{
		Config:    Config{Engine: testEngine(), Dc: dc},
		BlockSize: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	lshRes, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config:   Config{Engine: testEngine(), Dc: dc, Seed: 3},
		Accuracy: 0.99, M: 10, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lshRes.Stats.DistanceComputations >= basic.Stats.DistanceComputations {
		t.Fatalf("LSH-DDP distance count %d not below Basic-DDP %d",
			lshRes.Stats.DistanceComputations, basic.Stats.DistanceComputations)
	}
	if lshRes.Stats.ShuffleBytes >= basic.Stats.ShuffleBytes {
		t.Fatalf("LSH-DDP shuffle %d not below Basic-DDP %d",
			lshRes.Stats.ShuffleBytes, basic.Stats.ShuffleBytes)
	}
}

func TestLSHDDPClusterAgreesWithBasic(t *testing.T) {
	ds := dataset.Blobs("lsh-vs-basic-quality", 800, 2, 4, 150, 3, 41)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	basic, err := RunBasicDDP(context.Background(), ds, BasicConfig{Config: Config{Engine: testEngine(), Dc: dc}})
	if err != nil {
		t.Fatal(err)
	}
	lshRes, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config:   Config{Engine: testEngine(), Dc: dc, Seed: 6},
		Accuracy: 0.99, M: 10, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, bl, err := basic.Cluster(ds, SelectTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	_, ll, err := lshRes.Cluster(ds, SelectTopK(4))
	if err != nil {
		t.Fatal(err)
	}
	// Compare partitions up to label permutation via pair agreement.
	agree, total := 0, 0
	for i := 0; i < ds.N(); i += 3 {
		for j := i + 1; j < ds.N(); j += 3 {
			total++
			if (bl[i] == bl[j]) == (ll[i] == ll[j]) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.98 {
		t.Fatalf("pairwise cluster agreement %.4f, want >= 0.98", frac)
	}
}

func TestLSHDDPInfiniteDeltaRectified(t *testing.T) {
	// With a narrow width, density peaks of separate clusters land in
	// different partitions and become local absolute peaks with δ̂ = ∞;
	// Cluster() must rectify those before selection.
	ds := dataset.Blobs("lsh-inf", 600, 2, 6, 300, 2, 51)
	res, err := RunLSHDDP(context.Background(), ds, LSHConfig{
		Config:   Config{Engine: testEngine(), Seed: 12},
		Accuracy: 0.9, M: 5, Pi: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	infs := 0
	for _, d := range res.Delta {
		if math.IsInf(d, 1) {
			infs++
		}
	}
	if infs == 0 {
		t.Skip("no infinite deltas produced with this seed; nothing to rectify")
	}
	_, labels, err := res.Cluster(ds, SelectTopK(6))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l < 0 || l >= 6 {
			t.Fatalf("label[%d] = %d out of range", i, l)
		}
	}
	// Cluster must not mutate the result: the raw Delta keeps its ∞.
	stillInf := 0
	for _, d := range res.Delta {
		if math.IsInf(d, 1) {
			stillInf++
		}
	}
	if stillInf != infs {
		t.Fatalf("Cluster mutated Result.Delta: %d infinities left, want %d", stillInf, infs)
	}
	// A rectified graph, by contrast, has none.
	g, err := res.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range g.Delta {
		if math.IsInf(d, 0) {
			t.Fatalf("delta[%d] still infinite in the decision graph", i)
		}
	}
}
