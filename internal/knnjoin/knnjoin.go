package knnjoin

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

// Config tunes a kNN-join run. The zero value asks for sensible defaults:
// 8 layouts of 4 functions, width solved for 90% expected bucket accuracy
// from a sampled k-th-neighbor distance.
type Config struct {
	// M is the number of independent LSH layouts. Default 8.
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
	// NumReduces is the reduce-partition count of every job; <=0 lets the
	// engine pick one partition per worker.
	NumReduces int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (c *Config) m() int {
	if c.M > 0 {
		return c.M
	}
	return 8
}

func (c *Config) pi() int {
	if c.Pi > 0 {
		return c.Pi
	}
	return 4
}

func (c *Config) accuracy() float64 {
	if c.Accuracy > 0 {
		return c.Accuracy
	}
	return 0.9
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Result is the output of a kNN-join: for every query (indexed by query
// ID) its k nearest base points sorted ascending by (distance, base ID) —
// fewer than k entries only when S itself holds fewer than k points.
type Result struct {
	Neighbors [][]Neighbor
	// Fallbacks is the number of queries the bucketed pass could not
	// certify, re-joined by the exact pass (0 for RunExact).
	Fallbacks int
	// K and W record the parameters actually used.
	K int
	W float64
	// Stats aggregates the MapReduce cost counters of all passes.
	Stats core.Stats
}

// Run executes the LSH-bucketed kNN join R ⋉kNN S on the session's engine:
// a candidates+merge DAG over the hash buckets, then — for the queries
// whose bucket answer the guarantee radius could not certify — an
// exact-join DAG over just those queries. The result is bit-identical to
// RunExact (and to a single-machine full scan), including the
// lowest-ID-wins tie rule.
func Run(ctx context.Context, sess *dag.Session, R, S *points.Dataset, k int, cfg Config) (*Result, error) {
	return run(ctx, sess, R, S, k, cfg, CandidatesJob)
}

// run is Run with the candidates job passed in, so that the routing test
// can run the same pipeline with every query replicated to all M layouts.
func run(ctx context.Context, sess *dag.Session, R, S *points.Dataset, k int, cfg Config,
	candidates func(mapreduce.Conf) *mapreduce.Job) (*Result, error) {
	start := time.Now()
	if err := validate(R, S, k); err != nil {
		return nil, err
	}
	mark := sess.Mark()

	w := cfg.W
	if w <= 0 {
		w = estimateWidth(R, S, k, &cfg)
	}
	conf := buildConf(R.Dim(), k, w, &cfg)
	qIn := sess.Stage("knn-R:"+R.Name, taggedPairs(tagQuery, R))
	sIn := sess.Stage("knn-S:"+S.Name, taggedPairs(tagBase, S))

	g := dag.NewGraph("knn-join")
	cand := g.Job(candidates(conf).WithReduces(cfg.NumReduces), qIn, sIn)
	merged := g.Job(MergeJob(conf).WithReduces(cfg.NumReduces), cand)
	outs, err := sess.Run(ctx, g, merged)
	if err != nil {
		return nil, err
	}
	res := &Result{Neighbors: make([][]Neighbor, R.N()), K: k, W: w}
	fallback, err := decodeResults(res.Neighbors, outs[0])
	if err != nil {
		return nil, err
	}
	cfg.logf("knnjoin: bucketed pass certified %d/%d queries", R.N()-len(fallback), R.N())

	if len(fallback) > 0 {
		fbPairs := make([]mapreduce.Pair, len(fallback))
		for i, qid := range fallback {
			fbPairs[i] = mapreduce.Pair{Value: encodeTagged(tagQuery, R.Points[qid])}
		}
		fbIn := sess.Stage("knn-Rfb:"+R.Name, fbPairs)
		g2 := dag.NewGraph("knn-join-exact")
		ex := g2.Job(ExactJob(conf).WithReduces(cfg.NumReduces), fbIn, sIn)
		merged2 := g2.Job(MergeJob(conf).WithReduces(cfg.NumReduces), ex)
		outs2, err := sess.Run(ctx, g2, merged2)
		if err != nil {
			return nil, err
		}
		if _, err := decodeResults(res.Neighbors, outs2[0]); err != nil {
			return nil, err
		}
	}
	res.Fallbacks = len(fallback)
	res.Stats.W = w
	res.Stats.M = cfg.m()
	res.Stats.Pi = cfg.pi()
	core.CollectStats(&res.Stats, sess, mark, start)
	return res, nil
}

// RunExact executes the broadcast-naive exact join: base records partition
// by ID, every query visits every partition. It is the oracle Run is
// conformance-tested against and the engine of centroid scoring, where S
// is small enough that bucketing buys nothing.
func RunExact(ctx context.Context, sess *dag.Session, R, S *points.Dataset, k int, cfg Config) (*Result, error) {
	start := time.Now()
	if err := validate(R, S, k); err != nil {
		return nil, err
	}
	mark := sess.Mark()

	conf := buildConf(R.Dim(), k, 1, &cfg)
	qIn := sess.Stage("knn-R:"+R.Name, taggedPairs(tagQuery, R))
	sIn := sess.Stage("knn-S:"+S.Name, taggedPairs(tagBase, S))
	g := dag.NewGraph("knn-join-exact")
	ex := g.Job(ExactJob(conf).WithReduces(cfg.NumReduces), qIn, sIn)
	merged := g.Job(MergeJob(conf).WithReduces(cfg.NumReduces), ex)
	outs, err := sess.Run(ctx, g, merged)
	if err != nil {
		return nil, err
	}
	res := &Result{Neighbors: make([][]Neighbor, R.N()), K: k}
	if _, err := decodeResults(res.Neighbors, outs[0]); err != nil {
		return nil, err
	}
	core.CollectStats(&res.Stats, sess, mark, start)
	return res, nil
}

func validate(R, S *points.Dataset, k int) error {
	if k < 1 {
		return fmt.Errorf("knnjoin: k must be at least 1, got %d", k)
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
	return nil
}

func buildConf(dim, k int, w float64, cfg *Config) mapreduce.Conf {
	conf := mapreduce.Conf{}
	conf.SetInt(ConfK, k)
	conf.SetInt(ConfDim, dim)
	conf.SetInt(ConfM, cfg.m())
	conf.SetInt(ConfPi, cfg.pi())
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

// decodeResults fills dst (indexed by query ID) from merge-job output and
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
	sortInt32s(fallback)
	return fallback, nil
}

func sortInt32s(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
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
func estimateWidth(R, S *points.Dataset, k int, cfg *Config) float64 {
	rng := points.NewRand(cfg.Seed + 0x5d7e)
	dim := S.Dim()
	nb := 64 * k
	if nb < 16384 {
		nb = 16384
	}
	base := samplePositions(S, nb, rng)
	nBase := len(base) / dim
	kk := k
	if kk > nBase {
		kk = nBase
	}
	queries := samplePositions(R, 64, rng)
	acc := kernels.NewTopKAcc(kk)
	var entries []kernels.TopKEntry
	var sum float64
	nq := len(queries) / dim
	for i := 0; i < nq; i++ {
		acc.Reset(kk)
		kernels.TopKRange(base, dim, queries[i*dim:(i+1)*dim], 0, nBase, acc)
		entries = acc.Append(entries[:0])
		if len(entries) > 0 {
			sum += math.Sqrt(entries[len(entries)-1].D2)
		}
	}
	dc := sum / float64(nq)
	if !(dc > 0) || math.IsInf(dc, 1) {
		cfg.logf("knnjoin: degenerate sampled k-distance %v, width 1", dc)
		return 1
	}
	q := lsh.RequiredPerFuncProb(cfg.accuracy(), cfg.pi(), cfg.m())
	if !(q < 1) {
		cfg.logf("knnjoin: accuracy %v unreachable; falling back to 4·d_k", cfg.accuracy())
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
