package baselines

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/evalmetrics"
	"repro/internal/points"
)

func separatedBlobs(seed int64) *points.Dataset {
	// Three very well separated clusters: every sane algorithm must
	// recover them perfectly.
	rng := points.NewRand(seed)
	var vs []points.Vector
	var labels []int
	centers := []points.Vector{{0, 0}, {100, 0}, {0, 100}}
	for c, ctr := range centers {
		for i := 0; i < 60; i++ {
			vs = append(vs, points.Vector{
				ctr[0] + rng.NormFloat64(),
				ctr[1] + rng.NormFloat64(),
			})
			labels = append(labels, c)
		}
	}
	ds := points.FromVectors("separated", vs)
	ds.Labels = labels
	return ds
}

func ari(t *testing.T, truth, pred []int) float64 {
	t.Helper()
	v, err := evalmetrics.ARI(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestKMeansRecoversSeparatedClusters(t *testing.T) {
	ds := separatedBlobs(1)
	res, err := KMeans(ds, 3, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ari(t, ds.Labels, res.Labels); got != 1 {
		t.Fatalf("ARI = %v, want 1", got)
	}
	if res.Inertia <= 0 {
		t.Fatalf("inertia = %v", res.Inertia)
	}
	if res.Iterations <= 0 || res.Iterations > 50 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	ds := separatedBlobs(2)
	a, err := KMeans(ds, 3, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(ds, 3, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed, different labels")
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	ds := separatedBlobs(1)
	if _, err := KMeans(ds, 0, 10, 1); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := KMeans(ds, ds.N()+1, 10, 1); err == nil {
		t.Fatal("want error for k>N")
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	ds := points.FromVectors("tiny", []points.Vector{{0}, {10}, {20}})
	res, err := KMeans(ds, 3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Fatalf("k=N should give singletons, labels %v", res.Labels)
	}
	if res.Inertia != 0 {
		t.Fatalf("k=N inertia = %v", res.Inertia)
	}
}

func TestEMRecoversSeparatedClusters(t *testing.T) {
	ds := separatedBlobs(3)
	res, err := EM(ds, 3, 100, 1e-8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ari(t, ds.Labels, res.Labels); got != 1 {
		t.Fatalf("ARI = %v, want 1", got)
	}
	// Weights form a distribution.
	var sum float64
	for _, w := range res.Weights {
		if w < 0 {
			t.Fatalf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestEMLogLikelihoodMonotone(t *testing.T) {
	// Run twice with different iteration caps: more EM iterations can
	// never end with a lower log-likelihood.
	ds := dataset.Blobs("em-ll", 300, 2, 3, 60, 3, 5)
	short, err := EM(ds, 3, 2, 1e-12, 2)
	if err != nil {
		t.Fatal(err)
	}
	long, err := EM(ds, 3, 40, 1e-12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if long.LogLik < short.LogLik-1e-6 {
		t.Fatalf("log-likelihood decreased: %v -> %v", short.LogLik, long.LogLik)
	}
}

func TestDBSCANSeparatedClusters(t *testing.T) {
	ds := separatedBlobs(4)
	res, err := DBSCAN(ds, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 3 {
		t.Fatalf("clusters = %d, want 3", res.Clusters)
	}
	if got := ari(t, ds.Labels, res.Labels); got != 1 {
		t.Fatalf("ARI = %v, want 1", got)
	}
}

func TestDBSCANNoise(t *testing.T) {
	vs := []points.Vector{{0}, {0.1}, {0.2}, {50}}
	ds := points.FromVectors("noise", vs)
	res, err := DBSCAN(ds, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[3] != -1 || res.Noise != 1 {
		t.Fatalf("isolated point not noise: %+v", res)
	}
	if res.Clusters != 1 {
		t.Fatalf("clusters = %d", res.Clusters)
	}
}

// TestDBSCANLabelsIndependentOfDim: the same 2-D data embedded in 8
// dimensions gets the same labels, so the neighbour query answers alike in
// either.
func TestDBSCANLabelsIndependentOfDim(t *testing.T) {
	ds2 := separatedBlobs(5)
	vs8 := make([]points.Vector, ds2.N())
	for i, p := range ds2.Points {
		v := make(points.Vector, 8)
		v[0], v[1] = p.Pos[0], p.Pos[1]
		vs8[i] = v
	}
	ds8 := points.FromVectors("embedded", vs8)
	r2, err := DBSCAN(ds2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := DBSCAN(ds8, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := ari(t, r2.Labels, r8.Labels); got != 1 {
		t.Fatalf("2-d and embedded 8-d labels disagree: ARI %v", got)
	}
}

func TestDBSCANValidation(t *testing.T) {
	ds := separatedBlobs(1)
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		if _, err := DBSCAN(ds, eps, 2); err == nil {
			t.Fatalf("want error for eps=%v", eps)
		}
	}
	if _, err := DBSCAN(ds, 1, 0); err == nil {
		t.Fatal("want error for minPts=0")
	}
	if _, err := DBSCAN(points.FromVectors("0-d", []points.Vector{{}, {}}), 1, 2); err == nil {
		t.Fatal("want error for points without coordinates")
	}
	if res, err := DBSCAN(&points.Dataset{}, 1, 2); err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty set: %+v, %v", res, err)
	}
}

func TestHierarchicalSeparatedClusters(t *testing.T) {
	ds := separatedBlobs(6)
	for _, link := range []Linkage{SingleLink, CompleteLink, AverageLink} {
		labels, err := Hierarchical(ds, 3, link)
		if err != nil {
			t.Fatal(err)
		}
		if got := ari(t, ds.Labels, labels); got != 1 {
			t.Fatalf("linkage %d: ARI = %v, want 1", link, got)
		}
	}
}

func TestHierarchicalChaining(t *testing.T) {
	// A dense chain bridging two blobs: single link merges across the
	// bridge (chaining), complete link resists. This is the classic
	// behavioural difference.
	var vs []points.Vector
	var labels []int
	for i := 0; i < 20; i++ {
		vs = append(vs, points.Vector{float64(i) * 0.5, 0})
		labels = append(labels, 0)
	}
	for i := 0; i < 20; i++ {
		vs = append(vs, points.Vector{float64(i)*0.5 + 30, 0})
		labels = append(labels, 1)
	}
	// Bridge points at full intra-cluster density: the two blobs become
	// one unbroken 0.5-spaced chain, so single link has no gap to cut and
	// splits arbitrarily, while complete link still prefers compact halves.
	for i := 0; i < 41; i++ {
		vs = append(vs, points.Vector{9.5 + float64(i)*0.5, 0})
		labels = append(labels, 0)
	}
	ds := points.FromVectors("bridge", vs)
	ds.Labels = labels
	single, err := Hierarchical(ds, 2, SingleLink)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := Hierarchical(ds, 2, CompleteLink)
	if err != nil {
		t.Fatal(err)
	}
	if ariS, ariC := ari(t, labels, single), ari(t, labels, complete); ariC <= ariS {
		t.Fatalf("complete link (%v) should beat single link (%v) on bridged data", ariC, ariS)
	}
}

func TestHierarchicalValidation(t *testing.T) {
	ds := separatedBlobs(1)
	if _, err := Hierarchical(ds, 0, SingleLink); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := Hierarchical(ds, ds.N()+1, SingleLink); err == nil {
		t.Fatal("want error for k>N")
	}
	labels, err := Hierarchical(ds, ds.N(), SingleLink)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != ds.N() {
		t.Fatalf("k=N gave %d clusters", len(seen))
	}
}
