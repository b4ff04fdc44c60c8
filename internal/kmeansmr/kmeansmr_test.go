package kmeansmr

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalmetrics"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

func testEngine() mapreduce.Engine { return &mapreduce.LocalEngine{Parallelism: 4} }

// jobCounter is a local engine that counts the jobs it runs.
type jobCounter struct {
	mapreduce.LocalEngine
	jobs int
}

func (e *jobCounter) Run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) (*mapreduce.Result, error) {
	e.jobs++
	return e.LocalEngine.Run(ctx, job, input)
}

// TestMaxIterRefusedWhenNegative: Run refuses a negative MaxIter, naming
// the field, before any job runs; 0 still runs the default 100 iterations.
func TestMaxIterRefusedWhenNegative(t *testing.T) {
	ds := dataset.Blobs("kmr-maxiter", 50, 2, 2, 100, 2, 1)
	for _, tc := range []struct {
		maxIter, iterations int
	}{{-1, -1}, {math.MinInt, -1}, {0, 100}, {3, 3}} {
		eng := &jobCounter{}
		res, err := Run(context.Background(), ds, Config{Engine: eng, K: 2, MaxIter: tc.maxIter, Seed: 1})
		switch {
		case tc.iterations < 0 && (err == nil || !strings.Contains(err.Error(), "MaxIter") || eng.jobs != 0):
			t.Errorf("MaxIter %d: err %v after %d jobs, want MaxIter refused before any job", tc.maxIter, err, eng.jobs)
		case tc.iterations >= 0 && (err != nil || len(res.Iterations) != tc.iterations):
			t.Errorf("MaxIter %d: err %v, want %d iterations", tc.maxIter, err, tc.iterations)
		}
	}
}

func TestRecoversSeparatedClusters(t *testing.T) {
	ds := dataset.Blobs("kmr", 600, 2, 4, 500, 2, 3)
	res, err := Run(context.Background(), ds, Config{Engine: testEngine(), K: 4, MaxIter: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := evalmetrics.ARI(ds.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Fatalf("ARI = %v, want ~1 on separated blobs", ari)
	}
	if len(res.Iterations) != 10 {
		t.Fatalf("%d iterations recorded, want 10", len(res.Iterations))
	}
	if res.Wall <= 0 || res.Distances <= 0 || res.ShuffleBytes <= 0 {
		t.Fatalf("stats not recorded: %+v", res)
	}
}

func TestFixedIterationsWithoutTol(t *testing.T) {
	ds := dataset.Blobs("kmr-fixed", 200, 2, 2, 100, 2, 7)
	res, err := Run(context.Background(), ds, Config{Engine: testEngine(), K: 2, MaxIter: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 7 {
		t.Fatalf("ran %d iterations, want exactly 7 (paper style)", len(res.Iterations))
	}
}

func TestMatchesSequentialLloydFromSameInit(t *testing.T) {
	// Given identical initial centers, the distributed per-iteration job
	// must reproduce sequential Lloyd exactly.
	ds := dataset.Blobs("kmr-lloyd", 400, 3, 3, 200, 5, 11)
	k := 3
	centers := initialCenters(ds, k, 42)

	// Sequential Lloyd from the same centers.
	seq := make([]points.Vector, k)
	for i := range centers {
		seq[i] = centers[i].Clone()
	}
	for it := 0; it < 5; it++ {
		sums := make([]points.Vector, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make(points.Vector, ds.Dim())
		}
		for _, p := range ds.Points {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range seq {
				if d := points.SqDist(p.Pos, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			sums[best].Add(p.Pos)
			counts[best]++
		}
		for c := range seq {
			if counts[c] > 0 {
				sums[c].Scale(1 / float64(counts[c]))
				seq[c] = sums[c]
			}
		}
	}

	// Distributed: 5 iterations with the same seed (hence same init).
	res, err := Run(context.Background(), ds, Config{Engine: testEngine(), K: k, MaxIter: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for c := range seq {
		for j := range seq[c] {
			if math.Abs(res.Centers[c][j]-seq[c][j]) > 1e-9 {
				t.Fatalf("center %d dim %d: distributed %v, sequential %v",
					c, j, res.Centers[c][j], seq[c][j])
			}
		}
	}
}

func TestCombinerBoundsShuffle(t *testing.T) {
	// With a combiner, per-iteration shuffle is O(maps × k × dim) records,
	// independent of N.
	small := dataset.Blobs("kmr-small", 200, 4, 3, 100, 2, 13)
	big := dataset.Blobs("kmr-big", 2000, 4, 3, 100, 2, 13)
	resSmall, err := Run(context.Background(), small, Config{Engine: testEngine(), K: 3, MaxIter: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resBig, err := Run(context.Background(), big, Config{Engine: testEngine(), K: 3, MaxIter: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resBig.Iterations[0].ShuffleBytes > resSmall.Iterations[0].ShuffleBytes*3 {
		t.Fatalf("shuffle grew with N despite combiner: %d vs %d",
			resBig.Iterations[0].ShuffleBytes, resSmall.Iterations[0].ShuffleBytes)
	}
}

func TestValidation(t *testing.T) {
	ds := dataset.Blobs("kmr-bad", 50, 2, 2, 100, 2, 1)
	if _, err := Run(context.Background(), ds, Config{Engine: testEngine(), K: 0}); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := Run(context.Background(), ds, Config{Engine: testEngine(), K: 51}); err == nil {
		t.Fatal("want error for k>N")
	}
}

func TestCentroidCodecRoundTrip(t *testing.T) {
	cs := []points.Vector{{1, 2, 3}, {-4, 0, 9.5}}
	conf := mapreduce.Conf{confCentroids: points.EncodeVectors(cs)}
	got, err := centroidsFromConf(conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][2] != 9.5 {
		t.Fatalf("round trip = %v", got)
	}
	if _, err := centroidsFromConf(mapreduce.Conf{confCentroids: "!!!"}); err == nil {
		t.Fatal("want decode error")
	}
}

// TestCentroidsRejectTrailingBytes: a centroid list followed by bytes no
// centroid claims is an error, not a silently shorter read.
func TestCentroidsRejectTrailingBytes(t *testing.T) {
	raw := binary.LittleEndian.AppendUint32(nil, 1)
	raw = points.AppendPoint(raw, points.Point{ID: 0, Pos: points.Vector{1, 2}})
	if _, err := centroidsFromConf(mapreduce.Conf{confCentroids: base64.StdEncoding.EncodeToString(raw)}); err != nil {
		t.Fatalf("well-formed list: %v", err)
	}
	raw = append(raw, 0)
	if cs, err := centroidsFromConf(mapreduce.Conf{confCentroids: base64.StdEncoding.EncodeToString(raw)}); err == nil {
		t.Fatalf("list with a trailing byte decoded to %v", cs)
	}
}

func TestPartialCodec(t *testing.T) {
	count, sum, err := decodePartial(encodePartial(7, points.Vector{1.5, -2}))
	if err != nil || count != 7 || sum[0] != 1.5 || sum[1] != -2 {
		t.Fatalf("partial round trip: %d %v %v", count, sum, err)
	}
	if _, _, err := decodePartial([]byte{1, 2}); err == nil {
		t.Fatal("want short-partial error")
	}
}

// TestDecodeNewCentroidsRefuses: the reduce output holds at most one
// record per cluster, each of the centroids' dim, and partials fold only
// at one dim; a second record for a cluster is refused rather than let win,
// and a record of another dim rather than left to panic in Run's max-move
// loop or in the fold's Vector.Add.
func TestDecodeNewCentroidsRefuses(t *testing.T) {
	rec := func(c string, count int64, sum ...float64) mapreduce.Pair {
		return mapreduce.Pair{Key: c, Value: encodePartial(count, sum)}
	}
	prev := []points.Vector{{0, 0}, {1, 1}, {2, 2}}
	good := []mapreduce.Pair{rec("2", 3, 5, 6), rec("0", 0, 0, 0)}
	next, err := decodeNewCentroids(good, prev)
	if err != nil {
		t.Fatal(err)
	}
	if want := []points.Vector{{0, 0}, {1, 1}, {5, 6}}; !slices.EqualFunc(next, want, slices.Equal) {
		t.Fatalf("decoded %v, want %v", next, want)
	}
	for _, c := range []struct {
		name string
		out  []mapreduce.Pair
	}{
		{"two records for a cluster", append(slices.Clone(good), rec("2", 1, 7, 8))},
		{"a record of another dim", append(slices.Clone(good), rec("1", 1, 7, 8, 9))},
		{"an empty cluster's record of another dim", append(slices.Clone(good), rec("1", 0, 7))},
		{"a key past the last cluster", append(slices.Clone(good), rec("3", 1, 7, 8))},
		{"a negative key", append(slices.Clone(good), rec("-1", 1, 7, 8))},
		{"a key that is no number", append(slices.Clone(good), rec("x", 1, 7, 8))},
	} {
		if _, err := decodeNewCentroids(c.out, prev); err == nil {
			t.Errorf("%s: decoded without an error", c.name)
		}
	}
	if _, _, err := foldPartials([][]byte{encodePartial(1, points.Vector{1, 2}), encodePartial(1, points.Vector{3})}); err == nil {
		t.Error("folded partials of dims 2 and 1 without an error")
	}
}

// TestStagesInputOnceAcrossIterations is the regression guard for the
// old behavior of re-encoding and re-staging the full dataset on every
// Lloyd iteration: the run's dag counters must show exactly one staged
// dataset whose byte volume equals one encoding of the input, however
// many iterations execute.
func TestStagesInputOnceAcrossIterations(t *testing.T) {
	ds := dataset.Blobs("kmr-stage", 400, 3, 3, 200, 2, 9)
	res, err := Run(context.Background(), ds, Config{Engine: testEngine(), K: 3, MaxIter: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 6 {
		t.Fatalf("ran %d iterations, want 6", len(res.Iterations))
	}
	if n := res.Dag[dag.CtrStageDatasets]; n != 1 {
		t.Fatalf("staged %d datasets across 6 iterations, want 1", n)
	}
	once := mapreduce.PairsBytes(core.InputPairs(ds))
	if b := res.Dag[dag.CtrStageBytes]; b != once {
		t.Fatalf("staged %d bytes, want exactly one input encoding (%d)", b, once)
	}
	if n := res.Dag[dag.CtrNodes]; n != 6 {
		t.Fatalf("scheduler executed %d job nodes, want 6", n)
	}
}
