package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/dp"
	"repro/internal/evalmetrics"
	"repro/internal/kmeansmr"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// ExpAblation runs the design-choice ablations DESIGN.md calls out. Every
// row is a production job's measurement or a closed form:
//
//  1. ρ̂ aggregation: the paper's max vs mean vs a single layout —
//     validates Theorem 1's choice of max. One LSH-DDP run, beside a
//     sequential count of every point's partners per layout that must
//     reproduce the run's ρ̂ (layoutCounts).
//  2. δ̂ ∞ handling: rectifying to max finite δ (Section IV-C) vs zeroing —
//     shows the local-peak ∞ actually helps peak selection.
//  3. Combiner: shuffle bytes of the ρ aggregation job with and without a
//     map-side combiner.
//  4. Blocking: shuffle volume of Basic-DDP's blocked ρ job vs the naive
//     every-point-to-every-reducer strategy of Section III-A, in closed form.
//  5. Distance reuse: Basic-DDP's recomputation vs Section III's
//     store-the-matrix alternative, in closed form.
func ExpAblation(opt Options) (*Report, error) {
	r := &Report{
		Title:   "Ablations of DESIGN.md design choices",
		Columns: []string{"ablation", "variant", "metric", "value"},
	}
	for _, ablate := range []func(*Options, *Report) error{
		ablateAggregation, ablateRectify, ablateCombiner, ablateBlocking, ablateDistanceReuse,
	} {
		if err := ablate(&opt, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func ablateAggregation(opt *Options, r *Report) error {
	ds, err := opt.load("BigCross500K")
	if err != nil {
		return err
	}
	ds.Points = ds.Points[:min(ds.N(), 6000)]
	ds.Labels = nil
	dc := dp.CutoffByPercentile(ds, 0.02, opt.Seed)
	exact, err := dp.Compute(ds, dc)
	if err != nil {
		return err
	}
	// Fix the hash width (the width the paper's solver picks for A=0.99,
	// π=3, M=10) so the comparison isolates the aggregation rule. (Letting
	// a single layout re-solve w would make it trivially exact: it would
	// blow w up until one partition holds everything.)
	cfg := opt.lshConfig(opt.engine())
	cfg.Dc = dc
	if cfg.W, err = lsh.SolveWidth(0.99, dc, cfg.Pi, cfg.M); err != nil {
		return err
	}
	res, err := core.RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		return err
	}
	counts, err := layoutCounts(ds, cfg, res.Rho)
	if err != nil {
		return err
	}
	// Layout 0 is the one layout an M=1 run draws: NewLayouts seeds layout
	// i with seed + 7919·i whatever M is.
	mean, single := make([]float64, ds.N()), make([]float64, ds.N())
	for i, c := range counts {
		for _, v := range c {
			mean[i] += v
		}
		mean[i] /= float64(len(c))
		single[i] = c[0]
	}
	var tau [3]float64
	for x, rho := range [][]float64{res.Rho, mean, single} {
		if tau[x], err = evalmetrics.Tau2(exact.Rho, rho); err != nil {
			return err
		}
	}
	r.AddRow("rho-aggregation", "max over M=10 (paper)", "tau2", fmt.Sprintf("%.4f", tau[0]))
	r.AddRow("rho-aggregation", "mean over M=10", "tau2", fmt.Sprintf("%.4f", tau[1]))
	r.AddRow("rho-aggregation", "single layout (M=1)", "tau2", fmt.Sprintf("%.4f", tau[2]))
	if tau[0] < tau[1] || tau[0] < tau[2] {
		r.Notes = append(r.Notes, "UNEXPECTED: max aggregation did not dominate")
	}
	return nil
}

// layoutCounts hashes every point with the layouts RunLSHDDP draws for cfg
// (d_c, width, M and π set) and counts, layout by layout, its partners
// within d_c among the points sharing its bucket: the local densities ρ̂ᵢᵐ
// of Section IV-B, one point at a time. Theorem 1's ρ̂ᵢ is their max, so
// the max must equal rho, the pipeline's ρ̂, exactly.
func layoutCounts(ds *points.Dataset, cfg core.LSHConfig, rho []float64) ([][]float64, error) {
	l := lsh.NewLayouts(ds.Dim(), cfg.M, cfg.Pi, cfg.W, cfg.Seed)
	keys := make([][]string, ds.N())
	buckets := map[string][]int{}
	for i, p := range ds.Points {
		keys[i] = l.Keys(p.Pos)
		for _, k := range keys[i] {
			buckets[k] = append(buckets[k], i)
		}
	}
	dc2 := cfg.Dc * cfg.Dc
	counts := make([][]float64, ds.N())
	for i, p := range ds.Points {
		counts[i] = make([]float64, l.M())
		for m, k := range keys[i] {
			for _, j := range buckets[k] {
				if j != i && points.SqDist(p.Pos, ds.Points[j].Pos) < dc2 {
					counts[i][m]++
				}
			}
		}
		if got := slices.Max(counts[i]); got != rho[i] {
			return nil, fmt.Errorf("aggregation ablation: point %d: per-layout max %v, RunLSHDDP ρ̂ %v", i, got, rho[i])
		}
	}
	return counts, nil
}

func ablateRectify(opt *Options, r *Report) error {
	// Six well-separated clusters; run LSH-DDP with narrow-ish width so
	// cluster peaks become local absolute peaks (δ̂=∞), then select top-6
	// peaks with (a) rectification and (b) ∞ zeroed out.
	ds, err := opt.load("S2")
	if err != nil {
		return err
	}
	eng := opt.engine()
	cfg := opt.lshConfig(eng)
	cfg.Accuracy = 0.9
	cfg.M = 5
	cfg.Pi = 4
	res, err := core.RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		return err
	}
	exactDc := res.Stats.Dc
	exact, err := dp.Compute(ds, exactDc)
	if err != nil {
		return err
	}
	gExact, err := decision.NewGraph(exact.Rho, exact.Delta, exact.Upslope)
	if err != nil {
		return err
	}
	truePeaks := toSet(gExact.SelectTopK(15))

	infs := 0
	for _, d := range res.Delta {
		if math.IsInf(d, 1) {
			infs++
		}
	}

	gRect, err := decision.NewGraph(res.Rho, res.Delta, res.Upslope)
	if err != nil {
		return err
	}
	rectHits := overlap(toSet(gRect.SelectTopK(15)), truePeaks)

	zeroDelta := append([]float64(nil), res.Delta...)
	for i, d := range zeroDelta {
		if math.IsInf(d, 1) {
			zeroDelta[i] = 0
		}
	}
	gZero, err := decision.NewGraph(res.Rho, zeroDelta, res.Upslope)
	if err != nil {
		return err
	}
	zeroHits := overlap(toSet(gZero.SelectTopK(15)), truePeaks)

	r.AddRow("inf-delta", "rectify to max finite (paper)", "true peaks in top-15",
		fmt.Sprintf("%d/15 (inf-deltas=%d)", rectHits, infs))
	r.AddRow("inf-delta", "zero out infinities", "true peaks in top-15",
		fmt.Sprintf("%d/15", zeroHits))
	return nil
}

func ablateCombiner(opt *Options, r *Report) error {
	// The combiner pays off when a map task emits many records under few
	// keys; K-means' assignment step (one partial-sum per point, keyed by
	// one of k clusters) is the canonical case. Run one iteration with and
	// without the combiner.
	ds, err := opt.load("KDD")
	if err != nil {
		return err
	}
	ds.Points = ds.Points[:min(ds.N(), 4000)]
	ds.Labels = nil
	eng := opt.engine()

	run := func(withCombiner bool) (int64, error) {
		res, err := kmeansmr.Run(context.Background(), ds, kmeansmr.Config{
			Engine: &combinerStripper{Engine: eng, strip: !withCombiner},
			K:      8, MaxIter: 1, Seed: opt.Seed,
		})
		if err != nil {
			return 0, err
		}
		return res.ShuffleBytes, nil
	}
	with, err := run(true)
	if err != nil {
		return err
	}
	without, err := run(false)
	if err != nil {
		return err
	}
	r.AddRow("combiner", "k-means assign with combiner", "iteration shuffle", fmb(with))
	r.AddRow("combiner", "k-means assign without combiner", "iteration shuffle", fmb(without))
	if with >= without {
		r.Notes = append(r.Notes, "UNEXPECTED: combiner did not reduce shuffle")
	}
	return nil
}

// combinerStripper wraps an engine and optionally removes job combiners —
// ablation plumbing only.
type combinerStripper struct {
	Engine mapreduce.Engine
	strip  bool
}

func (c *combinerStripper) Run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) (*mapreduce.Result, error) {
	if c.strip {
		stripped := *job
		stripped.Combine = nil
		return c.Engine.Run(ctx, &stripped, input)
	}
	return c.Engine.Run(ctx, job, input)
}

func ablateBlocking(opt *Options, r *Report) error {
	ds, err := opt.load("3Dspatial")
	if err != nil {
		return err
	}
	ds.Points = ds.Points[:min(ds.N(), 1000)]
	ds.Labels = nil
	conf := mapreduce.Conf{}
	conf.SetFloat("ddp.dc", dp.CutoffByPercentile(ds, 0.02, opt.Seed))
	conf.SetInt("ddp.basic.blocks", (ds.N()+99)/100)
	blocked, err := opt.engine().Run(context.Background(), core.BasicRhoJob(conf), core.InputPairs(ds))
	if err != nil {
		return err
	}
	r.AddRow("blocking", "naive all-to-all (Section III-A straw man)", "rho-job shuffle",
		fmb(naiveRhoShuffle(ds)))
	r.AddRow("blocking", "blocked (Basic-DDP, block=100)", "rho-job shuffle",
		fmb(blocked.Counters.Get(mapreduce.CtrShuffleBytes)))
	return nil
}

// naiveRhoShuffle is the ρ-job shuffle of Section III-A's straw man, which
// sends every point to every point's reducer keyed by that point's decimal
// ID: N·Σⱼ len(itoa(j)) key bytes plus N·Σₚ len(EncodePoint(p)) value bytes.
func naiveRhoShuffle(ds *points.Dataset) int64 {
	var keys, values int64
	for j, p := range ds.Points {
		keys += int64(len(strconv.Itoa(j)))
		values += int64(len(points.EncodePoint(p)))
	}
	return int64(ds.N()) * (keys + values)
}

// Section III's design discussion: after the ρ job, should Basic-DDP store
// the pairwise distance matrix and reuse it for δ, or recompute distances?
// The paper recomputes ("the matrix can be very large and it can incur
// significant I/O cost"). ablateDistanceReuse sets a real Basic-DDP run
// against the road not taken in closed form (storedMatrix): distance
// computations halve, stored bytes grow quadratically.
func ablateDistanceReuse(opt *Options, r *Report) error {
	ds, err := opt.load("3Dspatial")
	if err != nil {
		return err
	}
	ds.Points = ds.Points[:min(ds.N(), 3000)]
	ds.Labels = nil
	recompute, err := core.RunBasicDDP(context.Background(), ds, core.BasicConfig{
		Config:    core.Config{Engine: opt.engine(), Dc: dp.CutoffByPercentile(ds, 0.02, opt.Seed)},
		BlockSize: 300,
	})
	if err != nil {
		return err
	}
	stored, reuse := storedMatrix(ds.N())
	r.AddRow("distance-reuse", "recompute (paper, Section III)", "stored matrix / dist",
		fmt.Sprintf("0MB / %s", fcount(recompute.Stats.DistanceComputations)))
	r.AddRow("distance-reuse", "store+reuse matrix", "stored matrix / dist",
		fmt.Sprintf("%s / %s", fmb(stored), fcount(reuse)))
	if reuse >= recompute.Stats.DistanceComputations {
		r.Notes = append(r.Notes, "UNEXPECTED: reuse did not halve distance work")
	}
	return nil
}

// storedMatrix is the store-and-reuse pipeline over n points: its ρ job
// computes each of the n(n−1)/2 distances once and stores each as a record
// of a one-byte key and an (i, j, d) value of 4 + 4 + 8 bytes, which the δ
// job then reads instead of recomputing. It returns the stored bytes and
// the distances computed.
func storedMatrix(n int) (bytes, distances int64) {
	pairs := int64(n) * int64(n-1) / 2
	return 17 * pairs, pairs
}

func toSet(ids []int32) map[int32]bool {
	s := make(map[int32]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

func overlap(a, b map[int32]bool) int {
	n := 0
	for id := range a {
		if b[id] {
			n++
		}
	}
	return n
}
