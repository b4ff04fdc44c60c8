package knnjoin

import (
	"bytes"
	"cmp"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

// filled is cfg with its constant defaults set, as Run and RunExact set
// them, for tests that build a join's Conf by hand.
func filled(cfg Config) *Config {
	if err := cfg.defaults(); err != nil {
		panic(err)
	}
	return &cfg
}

// unfilteredRun is Run with neither the base filter nor query routing, the
// reference TestBaseFilterKeepsAnswers holds Run to: every base copy and
// every query go to all M layouts, each bucket reducer answers its queries
// over its rows alone (g = +∞), the test folds each query's M lists into
// one, and certifies it against the query's guarantee radius before the
// exact job answers the rest. It returns the neighbour lists and the
// fallback IDs, ascending.
func unfilteredRun(t *testing.T, R, S *points.Dataset, k int, cfg Config) ([][]Neighbor, []int32) {
	t.Helper()
	ctx, sess := context.Background(), localSession()
	cfg = *filled(cfg)
	w := cfg.W
	if w <= 0 {
		w = estimateWidth(R, newBaseSample(S, k, cfg.Seed), &cfg)
	}
	conf := buildConf(R.Dim(), k, w, &cfg)
	layouts, err := layoutsOf(conf)
	if err != nil {
		t.Fatal(err)
	}
	everyLayout := &mapreduce.Job{
		Name: "knn-every-layout",
		Conf: conf,
		Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			p, _, err := points.DecodePoint(value[1:])
			if err != nil {
				return err
			}
			var kb lsh.KeyBuf
			layouts.Hash(&kb, p.Pos)
			rec := value
			if value[0] == tagQuery {
				rec = encodeBucketQuery(math.Inf(1), p)
			}
			kb.EachKey(func(key string) { out.Emit(key, rec) })
			return nil
		},
		Reduce: bucketReduce,
	}
	sIn := taggedPairs(tagBase, S)
	lists, err := sess.Run(ctx, everyLayout, taggedPairs(tagQuery, R), sIn)
	if err != nil {
		t.Fatal(err)
	}
	// Fold: sort each query's entries by (distance, base ID), drop the
	// copies of a base point met in several layouts, keep k.
	neighbors := make([][]Neighbor, R.N())
	for _, pr := range lists {
		r, err := decodeResult(pr.Value)
		if err != nil || r.Fallback {
			t.Fatalf("bucket result %+v: err %v", r, err)
		}
		neighbors[r.QID] = append(neighbors[r.QID], r.Entries...)
	}
	for qid, ns := range neighbors {
		slices.SortFunc(ns, func(a, b Neighbor) int {
			return cmp.Or(cmp.Compare(a.D2, b.D2), cmp.Compare(a.ID, b.ID))
		})
		ns = slices.Compact(ns)
		neighbors[qid] = ns[:min(len(ns), k)]
	}
	var fallback []int32
	var fbPairs []mapreduce.Pair
	var kb lsh.KeyBuf
	for qid, q := range R.Points {
		layouts.Hash(&kb, q.Pos)
		g, _ := layouts.GuaranteeRadius(&kb)
		ns := neighbors[qid]
		if certified := math.IsInf(g, 1) || len(ns) == k && math.Sqrt(ns[k-1].D2) < g; !certified {
			fallback = append(fallback, int32(qid))
			fbPairs = append(fbPairs, mapreduce.Pair{Value: encodeTagged(tagQuery, q)})
		}
	}
	if len(fallback) > 0 {
		if err := exactJoin(ctx, sess, conf, neighbors, fbPairs, sIn); err != nil {
			t.Fatal(err)
		}
	}
	return neighbors, fallback
}

func localSession() *dag.Session {
	return dag.NewSession(&mapreduce.LocalEngine{Parallelism: 4}, dag.Options{})
}

// jobCounter returns a counter of the first job of the given name.
func jobCounter(t *testing.T, res *Result, job, counter string) int64 {
	t.Helper()
	for _, j := range res.Stats.Jobs {
		if j.Name == job {
			return j.Counters[counter]
		}
	}
	t.Fatalf("no %s job in the run's stats", job)
	return 0
}

// requireSameAnswers runs Run and unfilteredRun and fails unless their
// neighbour lists and fallback IDs are equal. It also checks that Run's
// candidates job sent one record per query and, per base point, M copies
// between those it shipped and those it dropped. It returns Run's result.
func requireSameAnswers(t *testing.T, R, S *points.Dataset, k int, cfg Config) (*Result, []int32) {
	t.Helper()
	res, fallback, err := run(context.Background(), localSession(), R, S, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantFallback := unfilteredRun(t, R, S, k, cfg)
	if !slices.Equal(fallback, wantFallback) {
		t.Fatalf("fallbacks: %v filtered, %v unfiltered", fallback, wantFallback)
	}
	if !reflect.DeepEqual(res.Neighbors, want) {
		t.Fatal("neighbour lists differ between the filtered and the unfiltered run")
	}
	m, nR, nS := int64(res.Stats.M), int64(R.N()), int64(S.N())
	shipped := jobCounter(t, res, JobCandidates, mapreduce.CtrMapOutputRecords)
	if dropped := jobCounter(t, res, JobCandidates, CtrBaseDropped); shipped+dropped != m*nS+nR {
		t.Fatalf("%d records shipped and %d base copies dropped for %d queries and %d×%d base copies", shipped, dropped, nR, m, nS)
	}
	return res, fallback
}

// TestBaseFilterKeepsAnswers: routing each query to one bucket and shipping
// a base copy only into the box of its bucket's routed queries changes
// neither a neighbour list nor which queries fall back, compared with
// sending every query and every base copy to all M layouts.
func TestBaseFilterKeepsAnswers(t *testing.T) {
	ds := dataset.Blobs("knn-oracle", 700, 2, 4, 120, 3, 21)
	R, S, err := dataset.Split(ds, 150, 22)
	if err != nil {
		t.Fatal(err)
	}
	// Forty distinct positions under 600 points: most distances tie.
	dups := dataset.Blobs("knn-dups", 600, 3, 3, 60, 2, 8)
	for i := range dups.Points {
		copy(dups.Points[i].Pos, dups.Points[i%40].Pos)
	}
	dupR, dupS, err := dataset.Split(dups, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		R, S *points.Dataset
		k    int
		cfg  Config
	}{
		{"f64", R, S, 5, Config{Seed: 3}},
		{"narrow-m", R, S, 5, Config{Seed: 5, M: 2, Pi: 6}},
		{"fallback-heavy", R, S, 5, Config{Seed: 3, W: 4}},
		// A self-join: R = S.
		{"self-join", ds, ds, 4, Config{Seed: 7}},
		{"duplicates", dupR, dupS, 6, Config{Seed: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, fallback := requireSameAnswers(t, tc.R, tc.S, tc.k, tc.cfg)
			if tc.name == "fallback-heavy" && (len(fallback) == 0 || len(fallback) == tc.R.N()) {
				t.Fatalf("%d of %d queries fell back; the case is meant to mix both outcomes", len(fallback), tc.R.N())
			}
			if dropped := jobCounter(t, res, JobCandidates, CtrBaseDropped); tc.name == "f64" && dropped == 0 {
				t.Fatal("the base filter dropped no copy")
			}
		})
	}
}

// TestBoxEdges pins the base filter at its boundary. A routed query's box is
// q ± (g + 2⁻³⁰·(|q_t| + g)) on each axis, bounds included; base points on
// the query's g-sphere along each axis, at g·(1 ± 2⁻⁴⁰), ship to its bucket,
// and a base point with a non-finite coordinate passes that axis. A query
// with g = 0 — here one with a NaN coordinate — adds no box and falls back.
// End to end, the run drops copies and still answers as the unfiltered one.
func TestBoxEdges(t *testing.T) {
	const dim, k = 3, 6
	cfg := Config{Seed: 4, M: 4, Pi: 3, W: 8}
	conf := buildConf(dim, k, cfg.W, &cfg)
	layouts, err := layoutsOf(conf)
	if err != nil {
		t.Fatal(err)
	}
	q := points.Vector{10.25, -3.5, 7}
	var kb lsh.KeyBuf
	layouts.Hash(&kb, q)
	g, layout := layouts.GuaranteeRadius(&kb)
	if !(g > 0.5) {
		t.Fatalf("fixture query has guarantee radius %v; pick another", g)
	}
	routed := string(kb.Key(layout))

	nan := points.Vector{1, math.NaN(), 2}
	R := points.FromVectors("knn-edge-R", []points.Vector{q, nan})
	table := routeBoxes(layouts, R)
	if len(table.boxes) != 1 {
		t.Fatalf("%d boxes for one query with g > 0 and one with g = 0", len(table.boxes))
	}
	box := table.boxes[routed]
	if box == nil {
		t.Fatal("the routed bucket has no box")
	}
	for i, x := range q {
		pad := 0x1p-30 * (math.Abs(x) + g)
		if lo, hi := x-g-pad, x+g+pad; box[i] != lo || box[dim+i] != hi {
			t.Fatalf("axis %d: box [%v, %v], want [%v, %v]", i, box[i], box[dim+i], lo, hi)
		}
		at := func(v float64) points.Vector {
			p := slices.Clone(q)
			p[i] = v
			return p
		}
		for _, v := range []float64{box[i], box[dim+i], math.NaN(), math.Inf(1), math.Inf(-1)} {
			if !table.admits(routed, at(v)) {
				t.Fatalf("axis %d: a base point at %v is not admitted", i, v)
			}
		}
		for _, v := range []float64{math.Nextafter(box[i], math.Inf(-1)), math.Nextafter(box[dim+i], math.Inf(1))} {
			if table.admits(routed, at(v)) {
				t.Fatalf("axis %d: a base point at %v, outside the box, is admitted", i, v)
			}
		}
	}

	// S: the sphere points, then a blob far from q.
	var S []points.Vector
	for i := range q {
		for _, r := range []float64{g * (1 - 0x1p-40), -g * (1 - 0x1p-40), g * (1 + 0x1p-40), -g * (1 + 0x1p-40)} {
			p := slices.Clone(q)
			p[i] += r
			S = append(S, p)
		}
	}
	for _, p := range dataset.Blobs("knn-edge-S", 200, dim, 2, 40, 2, 3).Points {
		for i := range p.Pos {
			p.Pos[i] += 100 // far from q
		}
		S = append(S, p.Pos)
	}
	S = append(S, points.Vector{10, math.NaN(), 7}, points.Vector{math.Inf(1), -3.5, 7})
	Sds := points.FromVectors("knn-edge-S", S)
	candConf := conf.Clone()
	candConf[confBoxes] = encodeBoxes(table)
	job := CandidatesJob(candConf)
	for id := 0; id < 4*dim; id++ {
		shipped := false
		ctx := &mapreduce.TaskContext{Conf: job.Conf, Counters: mapreduce.NewCounters()}
		err := job.Map(ctx, "", encodeTagged(tagBase, Sds.Points[id]), mapreduce.EmitterFunc(func(key string, _ []byte) {
			shipped = shipped || key == routed
		}))
		if err != nil || !shipped {
			t.Fatalf("sphere point %d (%v): err %v, shipped to the routed bucket %v", id, Sds.Points[id].Pos, err, shipped)
		}
	}

	res, fallback := requireSameAnswers(t, R, Sds, k, cfg)
	if !slices.Equal(fallback, []int32{1}) {
		t.Fatalf("fallbacks %v, want only the NaN query", fallback)
	}
	for i, n := range res.Neighbors[0] {
		if id := n.ID; id >= 4*dim || id%4 >= 2 {
			t.Fatalf("neighbour %d of the edge query is base point %d, not one inside g", i, id)
		}
	}
	if jobCounter(t, res, JobCandidates, CtrBaseDropped) == 0 {
		t.Fatal("the filtered run shipped every base copy")
	}
}

// TestBucketCertifies: the candidates reducer certifies a list only when it
// holds k entries and the k-th lies strictly inside g (or g is +Inf), emits a
// flagged query with no entries, and counts it.
func TestBucketCertifies(t *testing.T) {
	conf := mapreduce.Conf{}
	conf.SetInt(ConfK, 2)
	base := []points.Point{{ID: 0, Pos: points.Vector{0, 1}}, {ID: 1, Pos: points.Vector{0, 2}}}
	for _, tc := range []struct {
		g        float64
		nBase    int
		fallback bool
	}{
		{2.5, 2, false},
		{2, 2, true}, // the k-th neighbour sits on the sphere
		{0, 2, true},
		{5, 1, true}, // fewer than k rows
		{math.Inf(1), 1, false},
		{math.Inf(1), 0, false},
	} {
		var values [][]byte
		for _, p := range base[:tc.nBase] {
			values = append(values, encodeTagged(tagBase, p))
		}
		values = append(values, encodeBucketQuery(tc.g, points.Point{ID: 3, Pos: points.Vector{0, 0}}))
		ctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
		var got []resultRec
		err := bucketReduce(ctx, "bucket", values, mapreduce.EmitterFunc(func(_ string, v []byte) {
			r, err := decodeResult(v)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, r)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].QID != 3 || got[0].Fallback != tc.fallback {
			t.Fatalf("g %v over %d rows: results %+v, want fallback %v", tc.g, tc.nBase, got, tc.fallback)
		}
		if n := len(got[0].Entries); tc.fallback && n != 0 || !tc.fallback && n != tc.nBase {
			t.Fatalf("g %v over %d rows: %d entries", tc.g, tc.nBase, n)
		}
		if c := ctx.Counters.Get(CtrFallbacks); (c == 1) != tc.fallback {
			t.Fatalf("g %v over %d rows: %s = %d", tc.g, tc.nBase, CtrFallbacks, c)
		}
	}
}

// bucketValues encodes one bucket's shuffle group: every point of S as a
// base record, the i-th point of R as a 'Q' record of radius i — so some
// results are certified and some flagged.
func bucketValues(R, S *points.Dataset) [][]byte {
	var values [][]byte
	for _, p := range S.Points {
		values = append(values, encodeTagged(tagBase, p))
	}
	for i, p := range R.Points {
		values = append(values, encodeBucketQuery(float64(i), p))
	}
	return values
}

// reduceBucket runs bucketReduce over one group and returns what it emitted
// and what it counted.
func reduceBucket(t *testing.T, conf mapreduce.Conf, values [][]byte) (out []mapreduce.Pair, candidates, boxes int64) {
	t.Helper()
	ctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
	err := bucketReduce(ctx, "bucket", values, mapreduce.EmitterFunc(func(key string, value []byte) {
		out = append(out, mapreduce.Pair{Key: key, Value: bytes.Clone(value)})
	}))
	if err != nil {
		t.Fatal(err)
	}
	if dc := ctx.Counters.Get(mapreduce.CtrDistanceComputations); dc != ctx.Counters.Get(CtrCandidates) {
		t.Fatalf("%s %d, %s %d", mapreduce.CtrDistanceComputations, dc, CtrCandidates, ctx.Counters.Get(CtrCandidates))
	}
	return out, ctx.Counters.Get(CtrCandidates), ctx.Counters.Get(CtrBoxChecks)
}

// TestValueOrderInsensitive: the engines deliver a group's values in
// whatever order the shuffle produced; the results, the number of
// distances evaluated and the number of box bounds computed must not
// depend on it.
func TestValueOrderInsensitive(t *testing.T) {
	ds := dataset.Blobs("knn-sweep-order", 900, 3, 5, 60, 2, 17)
	// Exact duplicates and a shared coordinate, so ties in coordinates and
	// in distance both occur.
	for i := 0; i+1 < len(ds.Points); i += 9 {
		copy(ds.Points[i+1].Pos, ds.Points[i].Pos)
	}
	R, S, err := dataset.Split(ds, 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	conf := mapreduce.Conf{}
	conf.SetInt(ConfK, 6)
	values := bucketValues(R, S)
	want, wantCount, wantBoxes := reduceBucket(t, conf, values)
	if len(want) != R.N() {
		t.Fatalf("%d results for %d queries", len(want), R.N())
	}
	flagged := 0
	for _, pr := range want {
		if r, err := decodeResult(pr.Value); err != nil || r.Fallback {
			flagged++
		}
	}
	if flagged == 0 || flagged == R.N() {
		t.Fatalf("%d of %d results flagged; the case is meant to mix both outcomes", flagged, R.N())
	}
	if wantCount <= 0 || wantCount >= int64(R.N())*int64(S.N()) || wantBoxes <= 0 {
		t.Fatalf("%d distances and %d box bounds for %d×%d pairs: the tree did not prune", wantCount, wantBoxes, R.N(), S.N())
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(values), func(a, b int) { values[a], values[b] = values[b], values[a] })
		got, gotCount, gotBoxes := reduceBucket(t, conf, values)
		if gotCount != wantCount || gotBoxes != wantBoxes {
			t.Fatalf("shuffle %d: %d distances and %d box bounds, %d and %d in input order", trial, gotCount, gotBoxes, wantCount, wantBoxes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffle %d: results differ from input order", trial)
		}
	}
}

// TestMalformedBaseRecords: a base record too short to hold a point ID, or
// whose length disagrees with its dimension header, is an error of the
// exact job's map, as it is of the candidates job's — not a panic, and not
// a record shipped to a reducer; and a bucket of points without
// coordinates, which the exact map cannot tell from valid ones, is an
// error of the reducer.
func TestMalformedBaseRecords(t *testing.T) {
	conf := buildConf(2, 3, 1, filled(Config{}))
	layouts, err := layoutsOf(conf)
	if err != nil {
		t.Fatal(err)
	}
	conf[confBoxes] = encodeBoxes(routeBoxes(layouts, points.FromVectors("R", []points.Vector{{1, 2}})))
	conf.SetInt(confGroups, 2)
	whole := encodeTagged(tagBase, points.Point{ID: 7, Pos: points.Vector{1, 2}})
	for _, job := range []*mapreduce.Job{ExactJob(conf), CandidatesJob(conf)} {
		for _, rec := range [][]byte{{tagBase}, {tagBase, 1, 2, 3}, {tagBase, 1, 2, 3, 4}, whole[:len(whole)-1], append(whole, 0)} {
			ctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
			emitted := 0
			err := job.Map(ctx, "", rec, mapreduce.EmitterFunc(func(string, []byte) { emitted++ }))
			if err == nil || emitted != 0 {
				t.Fatalf("%s map of %v: err %v after %d records", job.Name, rec, err, emitted)
			}
		}
		ctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
		if err := job.Map(ctx, "", whole, mapreduce.EmitterFunc(func(string, []byte) {})); err != nil {
			t.Fatalf("%s map of a whole base record: %v", job.Name, err)
		}
	}
	empty := points.Point{ID: 1, Pos: points.Vector{}}
	ctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
	values := [][]byte{encodeTagged(tagBase, empty), encodeBucketQuery(1, empty)}
	if err := bucketReduce(ctx, "bucket", values, mapreduce.EmitterFunc(func(string, []byte) {})); err == nil {
		t.Fatal("a bucket of zero-dimensional points reduced without an error")
	}
}

// bruteSample draws the run's sample of S and the width estimate's queries
// as newBaseSample and meanKDistance do, as flat blocks.
func bruteSample(R, S *points.Dataset, k int, seed int64) (base, queries []float64) {
	rng := points.NewRand(seed + 0x5d7e)
	base = samplePositions(S, max(16384, 64*k), rng)
	return base, samplePositions(R, 64, rng)
}

// bruteKth returns the entries a flat scan of the sample keeps for q.
func bruteKth(base []float64, dim int, q []float64, k int) []kernels.TopKEntry {
	acc := kernels.NewTopKAcc(k)
	kernels.TopKRange(base, dim, q, 0, len(base)/dim, acc)
	return acc.Append(nil)
}

// TestWidthMatchesBruteForce: the sampled k-distance the width is solved
// from, read off the box tree over the sample, is bit-identical to a flat
// scan of the sample, and the walk counts the distances it evaluated — on a
// sample drawn from a larger S, on duplicates, on an S smaller than the
// sample (all of it, in order), with k above |S|, and with base points that
// have a non-finite coordinate.
func TestWidthMatchesBruteForce(t *testing.T) {
	big := dataset.Blobs("knn-width-big", 20000, 3, 6, 200, 4, 3)
	bigR, bigS, err := dataset.Split(big, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	R, S := bigR, points.FromVectors("knn-width-small", nil)
	for _, p := range bigS.Points[:900] {
		S.Points = append(S.Points, points.Point{ID: int32(len(S.Points)), Pos: p.Pos})
	}
	// 500 positions, six copies each: every distance ties five times.
	dups := dataset.Blobs("knn-width-dups", 3000, 2, 3, 60, 2, 8)
	for i := range dups.Points {
		copy(dups.Points[i].Pos, dups.Points[i%500].Pos)
	}
	dupR, dupS, err := dataset.Split(dups, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	inf := points.FromVectors("knn-width-inf", []points.Vector{{1, math.Inf(1), 0}, {math.NaN(), 2, 2}, {3, 3, 3}, {4, 4, 4}})
	for _, tc := range []struct {
		name string
		R, S *points.Dataset
		k    int
	}{
		{"sampled-blobs", bigR, bigS, 10},
		{"small-S", R, S, 10},
		{"duplicates", dupR, dupS, 8},
		{"k-above-S", R, S, S.N() + 3},
		{"non-finite-base", R, inf, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 5
			sample := newBaseSample(tc.S, tc.k, seed)
			got := sample.meanKDistance(tc.R)
			base, queries := bruteSample(tc.R, tc.S, tc.k, seed)
			dim := tc.S.Dim()
			var sum float64
			nq := len(queries) / dim
			for i := 0; i < nq; i++ {
				if ents := bruteKth(base, dim, queries[i*dim:(i+1)*dim], min(tc.k, len(base)/dim)); len(ents) > 0 {
					sum += math.Sqrt(ents[len(ents)-1].D2)
				}
			}
			if want := sum / float64(nq); math.Float64bits(got) != math.Float64bits(want) || !(got > 0) {
				t.Fatalf("sampled k-distance %v from the tree, %v from a flat scan", got, want)
			}
			if pairs := int64(nq) * int64(len(base)/dim); sample.evaluated <= 0 || sample.evaluated > pairs {
				t.Fatalf("%d distances counted for %d query-sample pairs", sample.evaluated, pairs)
			}
			if tc.name == "sampled-blobs" && 8*sample.evaluated > int64(nq)*int64(len(base)/dim) {
				t.Fatalf("the walk evaluated %d of %d pairs: the tree did not prune", sample.evaluated, nq*len(base)/dim)
			}
		})
	}
}

// TestExactBoxCount: the exact job ships a base point to the fallback
// queries' group exactly when it lies in one of their boxes, each box the
// query's sampled k-th distance r(q), found by a flat scan of the sample,
// padded by 2⁻³⁰·(|q_t| + r) on every axis; every r(q) is at least q's
// k-th distance in S; and the driver counts the sample walks' distances in
// the run's total.
func TestExactBoxCount(t *testing.T) {
	ds := dataset.Blobs("knn-box-count", 21000, 2, 8, 300, 4, 12)
	R, S, err := dataset.Split(ds, 1500, 13)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	cfg := Config{Seed: 6, W: 6}
	res, fallback, err := run(context.Background(), localSession(), R, S, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fallback) < 20 || len(fallback) == R.N() {
		t.Fatalf("%d of %d queries fell back; the case is meant to mix both outcomes", len(fallback), R.N())
	}
	base, _ := bruteSample(R, S, k, cfg.Seed)
	if len(base)/S.Dim() >= S.N() {
		t.Fatalf("a sample of %d rows from %d: the case is meant to sample", len(base)/S.Dim(), S.N())
	}
	var boxes [][2]points.Vector
	for _, qid := range fallback {
		q := R.Points[qid].Pos
		ents := bruteKth(base, S.Dim(), q, k)
		r := math.Sqrt(ents[k-1].D2)
		if all := bruteKth(samplePositions(S, S.N(), nil), S.Dim(), q, k); all[k-1].D2 > ents[k-1].D2 {
			t.Fatalf("query %d: sampled k-th d² %v below the k-th in S, %v", qid, ents[k-1].D2, all[k-1].D2)
		}
		lo, hi := make(points.Vector, len(q)), make(points.Vector, len(q))
		for i, x := range q {
			pad := 0x1p-30 * (math.Abs(x) + r)
			lo[i], hi[i] = x-r-pad, x+r+pad
		}
		boxes = append(boxes, [2]points.Vector{lo, hi})
	}
	var inside int64
	for _, p := range S.Points {
		for _, b := range boxes {
			if p.Pos[0] >= b[0][0] && p.Pos[0] <= b[1][0] && p.Pos[1] >= b[0][1] && p.Pos[1] <= b[1][1] {
				inside++
				break
			}
		}
	}
	shipped := jobCounter(t, res, JobExact, mapreduce.CtrMapOutputRecords) - int64(len(fallback))
	dropped := jobCounter(t, res, JobExact, CtrBaseDropped)
	if shipped != inside || shipped+dropped != int64(S.N()) {
		t.Fatalf("exact job shipped %d base records and dropped %d; %d of %d base points lie in a fallback box",
			shipped, dropped, inside, S.N())
	}
	if 2*inside > int64(S.N()) {
		t.Fatalf("%d of %d base points in the fallback boxes: the filter barely filters", inside, S.N())
	}
	var jobs int64
	for _, j := range res.Stats.Jobs {
		jobs += j.Counters[mapreduce.CtrDistanceComputations]
	}
	if res.Stats.DistanceComputations <= jobs {
		t.Fatalf("%d distances in the run, %d in its jobs: the driver's walks are not counted", res.Stats.DistanceComputations, jobs)
	}
}

// TestGroupBoxesHolds: the axis-0 index answers what testing every box of
// the group with inBox answers, and the exact map ships a base point to
// exactly the groups one of whose queries' boxes holds it — bounds included,
// a non-finite coordinate passing its axis, by a predicate written out here
// — and counts every other group as a drop. The boxes share and repeat
// lower bounds, some are flat, and the points sit on, just outside and
// between their bounds, with ±Inf and NaN on either axis.
func TestGroupBoxesHolds(t *testing.T) {
	const dim, groups = 2, 3
	rng := rand.New(rand.NewSource(9))
	table := &boxTable{dim: dim, boxes: map[string][]float64{}}
	var boxes [][]float64
	for qid := range int32(40) {
		box := make([]float64, 2*dim)
		for i := range dim {
			box[i] = float64(rng.Intn(5) - 2)
			box[dim+i] = box[i] + []float64{0, 0.5, 1, 3}[rng.Intn(4)]
		}
		table.boxes[queryKey(qid)] = box
		boxes = append(boxes, box)
	}
	conf := buildConf(dim, 3, 1, filled(Config{}))
	conf.SetInt(confGroups, groups)
	conf[confExactBoxes] = encodeBoxes(table)
	job := ExactJob(conf)
	plan, err := exactPlanOf(conf)
	if err != nil {
		t.Fatal(err)
	}

	holds := func(box []float64, p points.Vector) bool {
		for i, x := range p {
			if !(box[i] <= x && x <= box[dim+i]) && !math.IsInf(x, 0) && !math.IsNaN(x) {
				return false
			}
		}
		return true
	}
	var probes []points.Vector
	for _, box := range boxes {
		for _, x := range []float64{box[0], box[dim]} {
			for _, y := range []float64{box[1], box[dim+1]} {
				probes = append(probes, points.Vector{x, y},
					points.Vector{math.Nextafter(x, math.Inf(-1)), y}, points.Vector{math.Nextafter(x, math.Inf(1)), y},
					points.Vector{x, math.Nextafter(y, math.Inf(-1))}, points.Vector{x, math.Nextafter(y, math.Inf(1))})
			}
		}
	}
	for range 400 {
		probes = append(probes, points.Vector{8*rng.Float64() - 3, 8*rng.Float64() - 3})
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		probes = append(probes, points.Vector{v, 0.25}, points.Vector{v, 40}, points.Vector{0.25, v}, points.Vector{40, v})
	}
	var shippedAny, droppedAny bool
	for id, p := range probes {
		var got []string
		ctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
		err := job.Map(ctx, "", encodeTagged(tagBase, points.Point{ID: int32(id), Pos: p}),
			mapreduce.EmitterFunc(func(key string, _ []byte) { got = append(got, key) }))
		if err != nil {
			t.Fatalf("base point %v: %v", p, err)
		}
		var want []string
		for g := range groups {
			scan := slices.ContainsFunc(plan.groups[g].boxes, func(box []float64) bool { return inBox(box, p) })
			if idx := plan.groups[g].holds(p); idx != scan {
				t.Fatalf("group %d, point %v: the index says %v, a test of every box %v", g, p, idx, scan)
			}
			for qid := g; qid < len(boxes); qid += groups {
				if holds(boxes[qid], p) {
					want = append(want, strconv.Itoa(g))
					break
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("base point %v went to groups %q, want %q", p, got, want)
		}
		if dropped := ctx.Counters.Get(CtrBaseDropped); dropped != int64(groups-len(want)) {
			t.Fatalf("base point %v: %d drops counted for %d groups shipped", p, dropped, len(want))
		}
		shippedAny = shippedAny || len(want) > 0
		droppedAny = droppedAny || len(want) < groups
	}
	if !shippedAny || !droppedAny {
		t.Fatalf("the probes never shipped (%v) or never dropped (%v): the case tests nothing", shippedAny, droppedAny)
	}
}

// TestPinnedWidthWalksNoSample: a run with a pinned width whose bucketed
// pass certifies every query needs neither the width estimate nor the
// radius rule, so the driver walks no sample of S and the run's distance
// count is its jobs' alone.
func TestPinnedWidthWalksNoSample(t *testing.T) {
	ds := dataset.Blobs("knn-no-sample", 3000, 2, 4, 120, 3, 21)
	R, S, err := dataset.Split(ds, 300, 22)
	if err != nil {
		t.Fatal(err)
	}
	res, fallback, err := run(context.Background(), localSession(), R, S, 4, Config{Seed: 3, W: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(fallback) != 0 {
		t.Fatalf("%d queries fell back; the case needs none", len(fallback))
	}
	var jobs int64
	for _, j := range res.Stats.Jobs {
		jobs += j.Counters[mapreduce.CtrDistanceComputations]
	}
	if res.Stats.DistanceComputations != jobs {
		t.Fatalf("%d distances in the run, %d in its jobs: the driver walked a sample", res.Stats.DistanceComputations, jobs)
	}
}
