package knnjoin

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/knob"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

// Config tunes a kNN-join run. The zero value asks for sensible defaults:
// 4 layouts of 4 functions, width solved for 90% expected bucket accuracy
// from a sampled k-th-neighbor distance.
type Config struct {
	// M is the number of independent LSH layouts. Default 4: a query is
	// answered in the one layout that certifies it, and every layout ships
	// its own copy of S, so layouts beyond 4 cost more shuffle than the few
	// queries they certify save (DESIGN.md "Layout count").
	M int
	// Pi is the number of hash functions per layout. Default 4.
	Pi int
	// W pins the LSH slot width; 0 derives it from Accuracy and a sampled
	// mean k-th-neighbor distance.
	W float64
	// Accuracy is the target certification rate the width estimate aims
	// for when W is 0 (see estimateWidth). Default 0.9. Correctness never
	// depends on it — uncertified queries re-join exactly — it only moves
	// the certified/fallback split.
	Accuracy float64
	// Seed seeds the layout draws and the width-estimation sample.
	Seed int64
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Validate refuses a negative M or Pi, a negative, NaN or infinite W, and
// an Accuracy outside [0, 1), which the width estimate cannot aim for.
func (c *Config) Validate() error {
	return cmp.Or(knob.Count("knnjoin: M", c.M), knob.Count("knnjoin: Pi", c.Pi),
		knob.Real("knnjoin: W", c.W), knob.Fraction("knnjoin: Accuracy", c.Accuracy))
}

// defaults sets each 0 knob with a constant default to it — M 4, Pi 4,
// Accuracy 0.9 — and validates c.
func (c *Config) defaults() error {
	c.M, c.Pi, c.Accuracy = cmp.Or(c.M, 4), cmp.Or(c.Pi, 4), cmp.Or(c.Accuracy, 0.9)
	return c.Validate()
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Result is the output of a kNN-join: for every query (indexed by query
// ID) its k nearest base points sorted ascending by (distance, base ID) —
// fewer than k entries only when fewer than k points of S lie at a finite
// distance from the query.
type Result struct {
	Neighbors [][]Neighbor
	// Fallbacks is the number of queries the bucketed pass could not
	// certify, answered by the exact job (0 for RunExact, which runs only
	// that job).
	Fallbacks int
	// K and W record the parameters actually used.
	K int
	W float64
	// Stats aggregates the MapReduce cost counters of all passes.
	Stats core.Stats
}

// Run executes the LSH-bucketed kNN join R ⋉kNN S on the session's engine:
// the candidates job over the hash buckets — each query routed to one
// bucket, each base point shipped only to the buckets whose routed queries
// can use it, each answer certified in its bucket — then, for the queries
// whose bucket answer the guarantee radius could not certify, the exact job
// over just those queries. The result is bit-identical to
// RunExact (and to a single-machine full scan), including the
// lowest-ID-wins tie rule.
func Run(ctx context.Context, sess *dag.Session, R, S *points.Dataset, k int, cfg Config) (*Result, error) {
	res, _, err := run(ctx, sess, R, S, k, cfg)
	return res, err
}

// run is Run that also returns the IDs of the queries the exact pass
// answered, ascending.
func run(ctx context.Context, sess *dag.Session, R, S *points.Dataset, k int, cfg Config) (*Result, []int32, error) {
	start := time.Now()
	if err := validate(R, S, k, &cfg); err != nil {
		return nil, nil, err
	}
	mark := sess.Mark()

	// The sample of S is drawn on first use, by the width estimate or the
	// exact pass's radius rule, so a run with a pinned width and no
	// fallback never builds it.
	var sample *baseSample
	sampleOf := func() *baseSample {
		if sample == nil {
			sample = newBaseSample(S, k, cfg.Seed)
		}
		return sample
	}
	w := cfg.W
	if w <= 0 {
		w = estimateWidth(R, sampleOf(), &cfg)
	}
	conf := buildConf(R.Dim(), k, w, &cfg)
	layouts, err := layoutsOf(conf)
	if err != nil {
		return nil, nil, err
	}
	candConf := conf.Clone() // the exact job needs no box table
	candConf[confBoxes] = encodeBoxes(routeBoxes(layouts, R))
	qIn := sess.Stage(taggedPairs(tagQuery, R))
	sIn := sess.Stage(taggedPairs(tagBase, S))

	cand, err := sess.Run(ctx, CandidatesJob(candConf), qIn, sIn)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Neighbors: make([][]Neighbor, R.N()), K: k, W: w}
	fallback, err := decodeResults(res.Neighbors, cand)
	if err != nil {
		return nil, nil, err
	}
	cfg.logf("knnjoin: bucketed pass certified %d/%d queries", R.N()-len(fallback), R.N())

	if len(fallback) > 0 {
		fbPairs := make([]mapreduce.Pair, len(fallback))
		for i, qid := range fallback {
			fbPairs[i] = mapreduce.Pair{Value: encodeTagged(tagQuery, R.Points[qid])}
		}
		exactConf := conf
		if table := sampleOf().radiusBoxes(R, fallback); table != nil {
			exactConf = conf.Clone()
			exactConf[confExactBoxes] = encodeBoxes(table)
		}
		if err := exactJoin(ctx, sess, exactConf, res.Neighbors, sess.Stage(fbPairs), sIn); err != nil {
			return nil, nil, err
		}
	}
	res.Fallbacks = len(fallback)
	res.Stats.W = w
	res.Stats.M = cfg.M
	res.Stats.Pi = cfg.Pi
	core.CollectStats(&res.Stats, sess, mark, start)
	// The driver's own walks over the sample count beside the reducers'.
	if sample != nil {
		res.Stats.DistanceComputations += sample.evaluated
	}
	return res, fallback, nil
}

// RunExact executes the exact join alone: one job whose groups each hold
// all of S and a share of R (ExactJob, with no box table). It is the oracle
// Run is conformance-tested against and the engine of centroid scoring,
// where S is small enough that bucketing buys nothing.
func RunExact(ctx context.Context, sess *dag.Session, R, S *points.Dataset, k int, cfg Config) (*Result, error) {
	start := time.Now()
	if err := validate(R, S, k, &cfg); err != nil {
		return nil, err
	}
	mark := sess.Mark()

	conf := buildConf(R.Dim(), k, 1, &cfg)
	qIn := sess.Stage(taggedPairs(tagQuery, R))
	sIn := sess.Stage(taggedPairs(tagBase, S))
	res := &Result{Neighbors: make([][]Neighbor, R.N()), K: k}
	if err := exactJoin(ctx, sess, conf, res.Neighbors, qIn, sIn); err != nil {
		return nil, err
	}
	core.CollectStats(&res.Stats, sess, mark, start)
	return res, nil
}

// exactJoin runs the exact job over the queries qIn and the base records sIn
// and decodes its answers into neighbors. It splits the queries into P =
// max(1, |qIn| / |sIn|) groups, so each group holds all of S and about |S|
// queries, and S is copied at most |qIn| times.
func exactJoin(ctx context.Context, sess *dag.Session, conf mapreduce.Conf, neighbors [][]Neighbor, qIn, sIn []mapreduce.Pair) error {
	conf = conf.Clone()
	conf.SetInt(confGroups, max(1, len(qIn)/len(sIn)))
	out, err := sess.Run(ctx, ExactJob(conf), qIn, sIn)
	if err != nil {
		return err
	}
	flagged, err := decodeResults(neighbors, out)
	if err != nil {
		return err
	}
	if len(flagged) > 0 {
		return fmt.Errorf("knnjoin: the exact job flagged %d queries, first %d", len(flagged), flagged[0])
	}
	return nil
}

func validate(R, S *points.Dataset, k int, cfg *Config) error {
	if k < 1 {
		return fmt.Errorf("knnjoin: k must be at least 1, got %d", k)
	}
	if err := cfg.defaults(); err != nil {
		return err
	}
	if err := R.Validate(); err != nil {
		return err
	}
	if err := S.Validate(); err != nil {
		return err
	}
	if R.N() == 0 {
		return fmt.Errorf("knnjoin: empty query set")
	}
	if S.N() == 0 {
		return fmt.Errorf("knnjoin: empty base set")
	}
	if R.Dim() != S.Dim() {
		return fmt.Errorf("knnjoin: query dim %d, base dim %d", R.Dim(), S.Dim())
	}
	if R.Dim() < 1 {
		return fmt.Errorf("knnjoin: points of dim %d, want at least 1", R.Dim())
	}
	return nil
}

func buildConf(dim, k int, w float64, cfg *Config) mapreduce.Conf {
	conf := mapreduce.Conf{}
	conf.SetInt(ConfK, k)
	conf.SetInt(ConfDim, dim)
	conf.SetInt(ConfM, cfg.M)
	conf.SetInt(ConfPi, cfg.Pi)
	conf.SetFloat(ConfW, w)
	conf.SetInt64(ConfSeed, cfg.Seed)
	return conf
}

// taggedPairs encodes a dataset as side-tagged input records.
func taggedPairs(tag byte, ds *points.Dataset) []mapreduce.Pair {
	in := make([]mapreduce.Pair, ds.N())
	for i, p := range ds.Points {
		in[i] = mapreduce.Pair{Value: encodeTagged(tag, p)}
	}
	return in
}

// decodeResults fills dst (indexed by query ID) from result records and
// returns the IDs flagged for the exact pass, ascending.
func decodeResults(dst [][]Neighbor, pairs []mapreduce.Pair) ([]int32, error) {
	var fallback []int32
	seen := make(map[int32]bool, len(pairs))
	for _, pr := range pairs {
		r, err := decodeResult(pr.Value)
		if err != nil {
			return nil, err
		}
		if int(r.QID) < 0 || int(r.QID) >= len(dst) {
			return nil, fmt.Errorf("knnjoin: result for unknown query %d", r.QID)
		}
		if seen[r.QID] {
			return nil, fmt.Errorf("knnjoin: duplicate result for query %d", r.QID)
		}
		seen[r.QID] = true
		if r.Fallback {
			fallback = append(fallback, r.QID)
			continue
		}
		dst[r.QID] = r.Entries
	}
	slices.Sort(fallback)
	return fallback, nil
}

// baseSample is the seeded sample of S the driver draws once per run, under
// a box tree: up to max(16384, 64k) points, drawn without replacement. It
// stands in for S twice — in the width estimate and in the exact pass's
// radius rule (radiusBoxes) — and both walk the tree (kernels.TopKLeaves),
// which keeps exactly what a flat scan of the sample keeps. evaluated counts
// the distances the walks computed; rng, seeded from the run's seed, drew
// the sample and draws the width estimate's queries after it.
type baseSample struct {
	data      []float64 // the sample's coordinates, rows of S's dimension
	tree      kernels.BoxTree
	rows, k   int // sample rows; the join's k
	rng       *points.Rand
	acc       kernels.TopKAcc
	entries   []kernels.TopKEntry
	evaluated int64
}

func newBaseSample(S *points.Dataset, k int, seed int64) *baseSample {
	s := &baseSample{k: k, rng: points.NewRand(seed + 0x5d7e)}
	s.data = samplePositions(S, max(16384, 64*k), s.rng)
	s.rows = len(s.data) / S.Dim()
	s.tree.Build(s.data, S.Dim())
	return s
}

// farthest walks the sample for q's k nearest rows and returns how many it
// kept — fewer than k when fewer rows lie at a finite distance — and the
// squared distance of the farthest kept one.
func (s *baseSample) farthest(q []float64, k int) (d2 float64, kept int) {
	s.acc.Reset(k)
	s.evaluated += int64(kernels.TopKLeaves(&s.tree, s.data, q, nil, nil, &s.acc).Rows)
	s.entries = s.acc.Append(s.entries[:0])
	if len(s.entries) == 0 {
		return 0, 0
	}
	return s.entries[len(s.entries)-1].D2, len(s.entries)
}

// radiusBoxes is the exact pass's base filter: for each fallback query q,
// keyed by its ID (queryKey), the box of radius r(q) around q, padded as the
// candidates job's boxes are (growBox), where r(q) is q's distance to its
// k-th nearest sample row. The sample is a subset of S, so r(q) is at least
// q's k-th distance in S, and every neighbour of q, ties at the k-th
// distance included, lies in its box. It returns nil — the exact job then
// sends all of S to every group — when some query has fewer than k sample
// rows at a finite distance: the sample is smaller than k, or the query or
// too many sample rows have a non-finite coordinate.
func (s *baseSample) radiusBoxes(R *points.Dataset, fallback []int32) *boxTable {
	t := &boxTable{dim: R.Dim(), boxes: make(map[string][]float64, len(fallback))}
	for _, qid := range fallback {
		q := R.Points[qid].Pos
		d2, kept := s.farthest(q, s.k)
		if kept < s.k {
			return nil
		}
		box := emptyBox(t.dim)
		growBox(box, q, math.Sqrt(d2))
		t.boxes[queryKey(qid)] = box
	}
	return t
}

// meanKDistance is d_k for the width estimate: the mean, over up to 64
// queries drawn from R after the sample, of the distance to the farthest of
// their min(k, rows) nearest sample rows (nothing when a query has no
// sample row at a finite distance).
func (s *baseSample) meanKDistance(R *points.Dataset) float64 {
	dim := R.Dim()
	k := min(s.k, s.rows)
	queries := samplePositions(R, 64, s.rng)
	var sum float64
	nq := len(queries) / dim
	for i := 0; i < nq; i++ {
		if d2, kept := s.farthest(queries[i*dim:(i+1)*dim], k); kept > 0 {
			sum += math.Sqrt(d2)
		}
	}
	return sum / float64(nq)
}

// estimateWidth derives the LSH slot width from a seeded sample: the mean
// k-th-neighbor distance of up to 64 sampled queries against up to
// max(16384, 64k) sampled base points stands in for d_k. Subsampling S only
// inflates the estimate — the k-th neighbor in a subsample is farther than
// in all of S — which widens slots and trades replication for fewer
// fallbacks, never correctness.
//
// Unlike the density pass, which only needs the paper's probabilistic
// collision accuracy (lsh.SolveWidth, w ≈ 6 d_c), the join certifies each
// query deterministically: the guarantee radius min_j edge_j·w/‖a_j‖ must
// exceed d_k. The per-function edge fraction is U(0, ½) and ‖a_j‖ ≈ √dim,
// so a function certifies with probability ≈ 1 − 2 d_k √dim / w and the
// width that reaches the target accuracy across M layouts of π functions is
//
//	w = 2 d_k √dim / (1 − q),  q = RequiredPerFuncProb(accuracy, π, M)
//
// — roughly 1.25·√dim times the paper's width, the price of an exactness
// certificate instead of a probabilistic one.
func estimateWidth(R *points.Dataset, sample *baseSample, cfg *Config) float64 {
	dim := R.Dim()
	dc := sample.meanKDistance(R)
	if !(dc > 0) || math.IsInf(dc, 1) {
		cfg.logf("knnjoin: degenerate sampled k-distance %v, width 1", dc)
		return 1
	}
	q := lsh.RequiredPerFuncProb(cfg.Accuracy, cfg.Pi, cfg.M)
	if !(q < 1) {
		cfg.logf("knnjoin: accuracy %v unreachable; falling back to 4·d_k", cfg.Accuracy)
		return 4 * dc
	}
	w := 2 * dc * math.Sqrt(float64(dim)) / (1 - q)
	cfg.logf("knnjoin: sampled k-distance %.4g, width %.4g", dc, w)
	return w
}

// samplePositions returns a flat block of up to n point positions drawn
// without replacement (all of them, in order, when the set is small).
func samplePositions(ds *points.Dataset, n int, rng *points.Rand) []float64 {
	dim := ds.Dim()
	if ds.N() <= n {
		out := make([]float64, 0, ds.N()*dim)
		for _, p := range ds.Points {
			out = append(out, p.Pos...)
		}
		return out
	}
	perm := rng.Perm(ds.N())[:n]
	out := make([]float64, 0, n*dim)
	for _, i := range perm {
		out = append(out, ds.Points[i].Pos...)
	}
	return out
}
