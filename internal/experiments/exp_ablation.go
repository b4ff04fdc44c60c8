package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/evalmetrics"
	"repro/internal/kmeansmr"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// ExpAblation runs the design-choice ablations DESIGN.md calls out:
//
//  1. ρ̂ aggregation: the paper's max vs mean vs a single layout —
//     validates Theorem 1's choice of max.
//  2. δ̂ ∞ handling: rectifying to max finite δ (Section IV-C) vs zeroing —
//     shows the local-peak ∞ actually helps peak selection.
//  3. Combiner: shuffle bytes of the ρ aggregation job with and without a
//     map-side combiner.
//  4. Blocking: shuffle volume of Basic-DDP's blocked ρ job vs the naive
//     every-point-to-every-reducer strategy of Section III-A.
//  5. Distance reuse: Section III's store-the-matrix alternative vs the
//     paper's recomputation (see exp_reuse.go).
func ExpAblation(opt Options) (*Report, error) {
	r := &Report{
		Title:   "Ablations of DESIGN.md design choices",
		Columns: []string{"ablation", "variant", "metric", "value"},
	}
	if err := ablateAggregation(&opt, r); err != nil {
		return nil, err
	}
	if err := ablateRectify(&opt, r); err != nil {
		return nil, err
	}
	if err := ablateCombiner(&opt, r); err != nil {
		return nil, err
	}
	if err := ablateBlocking(&opt, r); err != nil {
		return nil, err
	}
	if err := ablateDistanceReuse(&opt, r); err != nil {
		return nil, err
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
	eng := opt.engine()
	dc := dp.CutoffByPercentile(ds, 0.02, opt.Seed)
	exact, err := dp.Compute(ds, dc, dp.Options{})
	if err != nil {
		return err
	}
	// Fix the hash width across variants (the width the paper's solver
	// picks for A=0.99, π=3, M=10) so the comparison isolates the
	// aggregation rule. (Letting each variant re-solve w would make M=1
	// trivially exact: it would blow w up until one partition holds
	// everything.)
	w, err := lsh.SolveWidth(0.99, dc, 3, 10)
	if err != nil {
		return err
	}
	run := func(m int, mean bool) (float64, error) {
		cfg := opt.lshConfig(eng)
		cfg.Dc = dc
		cfg.M = m
		cfg.W = w
		cfg.AggregateMean = mean
		res, err := core.RunLSHDDP(context.Background(), ds, cfg)
		if err != nil {
			return 0, err
		}
		return evalmetrics.Tau2(exact.Rho, res.Rho)
	}
	tauMax, err := run(10, false)
	if err != nil {
		return err
	}
	tauMean, err := run(10, true)
	if err != nil {
		return err
	}
	tauSingle, err := run(1, false)
	if err != nil {
		return err
	}
	r.AddRow("rho-aggregation", "max over M=10 (paper)", "tau2", fmt.Sprintf("%.4f", tauMax))
	r.AddRow("rho-aggregation", "mean over M=10", "tau2", fmt.Sprintf("%.4f", tauMean))
	r.AddRow("rho-aggregation", "single layout (M=1)", "tau2", fmt.Sprintf("%.4f", tauSingle))
	if tauMax < tauMean || tauMax < tauSingle {
		r.Notes = append(r.Notes, "UNEXPECTED: max aggregation did not dominate")
	}
	return nil
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
	exact, err := dp.Compute(ds, exactDc, dp.Options{})
	if err != nil {
		return err
	}
	gExact, err := decisionGraph(exact.Rho, exact.Delta, exact.Upslope)
	if err != nil {
		return err
	}
	gExact.Rectify()
	truePeaks := toSet(gExact.SelectTopK(15))

	infs := 0
	for _, d := range res.Delta {
		if math.IsInf(d, 1) {
			infs++
		}
	}

	gRect, err := decisionGraph(res.Rho, append([]float64(nil), res.Delta...), res.Upslope)
	if err != nil {
		return err
	}
	gRect.Rectify()
	rectHits := overlap(toSet(gRect.SelectTopK(15)), truePeaks)

	zeroDelta := append([]float64(nil), res.Delta...)
	for i, d := range zeroDelta {
		if math.IsInf(d, 1) {
			zeroDelta[i] = 0
		}
	}
	gZero, err := decisionGraph(res.Rho, zeroDelta, res.Upslope)
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

// naiveRhoJob is Section III-A's straw man: every point is shuffled to
// every point's reducer.
func naiveRhoJob(dc float64, n int) *mapreduce.Job {
	conf := mapreduce.Conf{}
	conf.SetFloat("dc", dc)
	conf.SetInt("n", n)
	return &mapreduce.Job{
		Name: "naive-rho",
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			total := ctx.Conf.GetInt("n", 0)
			for j := 0; j < total; j++ {
				out.Emit(strconv.Itoa(j), value)
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			id, err := strconv.Atoi(key)
			if err != nil {
				return err
			}
			dc := ctx.Conf.GetFloat("dc", 0)
			dc2 := dc * dc
			var self points.Point
			pts := make([]points.Point, 0, len(values))
			for _, v := range values {
				p, _, err := points.DecodePoint(v)
				if err != nil {
					return err
				}
				if int(p.ID) == id {
					self = p
				}
				pts = append(pts, p)
			}
			distCtr := ctx.Counters.Cell(mapreduce.CtrDistanceComputations)
			var rho float64
			var nd int64
			for _, p := range pts {
				if p.ID == self.ID {
					continue
				}
				nd++
				if points.SqDist(p.Pos, self.Pos) < dc2 {
					rho++
				}
			}
			distCtr.Add(nd)
			out.Emit(key, points.EncodeRhoValue(points.RhoValue{ID: self.ID, Rho: rho}))
			return nil
		},
	}
}

func ablateBlocking(opt *Options, r *Report) error {
	ds, err := opt.load("3Dspatial")
	if err != nil {
		return err
	}
	ds.Points = ds.Points[:min(ds.N(), 1000)]
	ds.Labels = nil
	eng := opt.engine()
	dc := dp.CutoffByPercentile(ds, 0.02, opt.Seed)

	naive, err := eng.Run(context.Background(), naiveRhoJob(dc, ds.N()), core.InputPairs(ds))
	if err != nil {
		return err
	}
	conf := mapreduce.Conf{}
	conf.SetFloat("ddp.dc", dc)
	conf.SetInt("ddp.basic.blocks", (ds.N()+99)/100)
	blocked, err := eng.Run(context.Background(), core.BasicRhoJob(conf), core.InputPairs(ds))
	if err != nil {
		return err
	}
	r.AddRow("blocking", "naive all-to-all (Section III-A straw man)", "rho-job shuffle",
		fmb(naive.Counters.Get(mapreduce.CtrShuffleBytes)))
	r.AddRow("blocking", "blocked (Basic-DDP, block=100)", "rho-job shuffle",
		fmb(blocked.Counters.Get(mapreduce.CtrShuffleBytes)))
	return nil
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
