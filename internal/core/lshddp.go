package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

// LSHConfig configures LSH-DDP.
type LSHConfig struct {
	Config
	// Accuracy is the expected accuracy A of Section V; when W is 0 the
	// runner solves Eq. 5 for the minimal width meeting it. Default 0.99.
	Accuracy float64
	// M is the number of LSH layouts (hash groups). Default 10, the
	// paper's recommended range being [10, 20].
	M int
	// Pi is the number of hash functions per group. Default 3, the
	// paper's recommended range being [3, 10].
	Pi int
	// W pins the hash width; 0 derives it from Accuracy and d_c.
	W float64
	// AggregateMean switches ρ̂ aggregation from the paper's max to a mean
	// (ablation; Theorem 1 justifies max because ρ̂ᵐ ≤ ρ always).
	AggregateMean bool
}

func (c *LSHConfig) accuracy() float64 {
	if c.Accuracy > 0 {
		return c.Accuracy
	}
	return 0.99
}

func (c *LSHConfig) m() int {
	if c.M > 0 {
		return c.M
	}
	return 10
}

func (c *LSHConfig) pi() int {
	if c.Pi > 0 {
		return c.Pi
	}
	return 3
}

// RunLSHDDP executes the approximate LSH-DDP pipeline of Section IV as
// one job DAG:
//
//	node 0  d_c sampling (unless cfg.Dc is set)
//	        width solving: minimal w with 1−(1−P_ρ(w,d_c)^π)^M ≥ A
//	node 1  LSH partition (M layouts) + each partition's share of the
//	        local ρ̂ᵐ, every co-bucketed pair evaluated once (paironce.go)
//	node 2  ρ̂ aggregation: shares added per layout, then max over layouts
//	        (Theorem 1)
//	node 3  ρ̂-annotate transform (driver side)
//	node 4  LSH partition + local δ̂/upslope using aggregated ρ̂, pair-once
//	        again; local absolute peaks get δ̂ = +∞ (Section IV-C)
//	node 5  δ̂ aggregation: min over layouts (Theorem 2)
//
// The returned Delta may contain +∞ for points that looked like the
// absolute peak in every layout; Result.Cluster rectifies them to the max
// finite δ before peak selection, as the paper prescribes.
func RunLSHDDP(ctx context.Context, ds *points.Dataset, cfg LSHConfig) (*Result, error) {
	start := time.Now()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.N() < 2 {
		return nil, fmt.Errorf("core: need at least 2 points, have %d", ds.N())
	}
	sess := cfg.DagSession()
	mark := sess.Mark()
	input := sess.Stage("points", InputPairs(ds))

	dc, err := ChooseDc(ctx, sess, ds, &cfg.Config, input)
	if err != nil {
		return nil, err
	}
	w := cfg.W
	if w <= 0 {
		w, err = lsh.SolveWidth(cfg.accuracy(), dc, cfg.pi(), cfg.m())
		if err != nil {
			return nil, err
		}
	}

	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, dc)
	conf.SetInt(confDim, ds.Dim())
	conf.SetInt(confM, cfg.m())
	conf.SetInt(confPi, cfg.pi())
	conf.SetFloat(confW, w)
	conf.SetInt64(confSeed, cfg.Seed)
	conf.SetBool(confAggMean, cfg.AggregateMean)
	setKernelConf(conf, cfg.Kernel)

	g := dag.NewGraph("lsh-ddp")
	partials := g.Job(LSHRhoJob(conf).WithReduces(cfg.NumReduces), input)
	rhoOut := g.Job(LSHRhoAggJob(conf).WithReduces(cfg.NumReduces), partials)
	rhoPts := g.Transform("lsh-rho-points", func(in ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
		rho, err := DecodeRhoArray(in[0], ds.N())
		if err != nil {
			return nil, err
		}
		return RhoPointPairs(ds, rho), nil
	}, rhoOut)
	dPartials := g.Job(LSHDeltaJob(conf).WithReduces(cfg.NumReduces), rhoPts)
	dOut := g.Job(DeltaAggJob(JobLSHDelAgg, mapreduce.Conf{}).WithReduces(cfg.NumReduces), dPartials)

	outs, err := sess.Run(ctx, g, rhoOut, dOut)
	if err != nil {
		return nil, err
	}
	rho, err := DecodeRhoArray(outs[0], ds.N())
	if err != nil {
		return nil, err
	}
	delta, upslope, err := DecodeDeltaArrays(outs[1], ds.N())
	if err != nil {
		return nil, err
	}

	res := &Result{Rho: rho, Delta: delta, Upslope: upslope}
	res.Stats.Dc = dc
	res.Stats.W = w
	res.Stats.Pi = cfg.pi()
	res.Stats.M = cfg.m()
	CollectStats(&res.Stats, sess, mark, start)
	return res, nil
}

// lazyLayouts returns a job instance's layouts resolver. Workers of the
// distributed engine rebuild the LSH layouts from job configuration instead
// of receiving serialized hash functions (the draws are seeded, so every
// worker regenerates identical ones); the first map call parses the
// parameters and fetches the process-wide copy, and every later call — one
// per record — is a sync.Once fast path.
func lazyLayouts() func(mapreduce.Conf) *lsh.Layouts {
	var once sync.Once
	var l *lsh.Layouts
	return func(conf mapreduce.Conf) *lsh.Layouts {
		once.Do(func() {
			l = lsh.Cached(conf.GetInt(confDim, 0), conf.GetInt(confM, 1), conf.GetInt(confPi, 1),
				conf.GetFloat(confW, 1), conf.GetInt64(confSeed, 0))
		})
		return l
	}
}

// LSHRhoJob is job 1: the map side hashes every point under all M layouts
// and emits one copy per layout keyed by that layout's bucket; each reducer
// holds one LSH partition S_k^m (Section IV-B) and evaluates the pairs of it
// that no earlier layout's partition also holds (paironce.go). A pair within
// d_c counts toward the local density ρ̂ᵢᵐ′ of both points under every layout
// m′ ≥ m whose bucket they share, so the reducer emits, per point, its
// share of the densities under layouts m … M−1 as one RhoPartial — when the
// share is not all zero, and always from layout 0, so that every point
// reaches the aggregation.
func LSHRhoJob(conf mapreduce.Conf) *mapreduce.Job {
	layouts := lazyLayouts()
	return &mapreduce.Job{
		Name: JobLSHRho,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			p, _, err := points.DecodePoint(value)
			if err != nil {
				return err
			}
			layouts(ctx.Conf).EachKey(p.Pos, func(key string) { out.Emit(key, value) })
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			l := layouts(ctx.Conf)
			own, err := reducerLayout(key, l)
			if err != nil {
				return err
			}
			kern := kernelFromConf(ctx.Conf)
			po := pairOncePool.Get().(*pairOnce)
			defer pairOncePool.Put(po)
			m, err := po.load(l, own, l.M(), values, points.DecodePointsInto)
			if err != nil {
				return err
			}
			defer points.PutMatrix(m)
			blocks, skipped := po.owned(m.N(), own)
			if len(blocks) == 0 {
				// A later layout all of whose pairs earlier ones own: no
				// share to report (layout 0 always has its triangle).
				countPairs(ctx, 0, skipped)
				return nil
			}
			cr := &po.credit
			cr.Layouts, cr.Own, cr.Sig = l.M(), own, po.sig
			cr.Reset(m.N(), kern)
			countPairs(ctx, kernels.Rho(m, blocks, kern, cr), skipped)
			part := points.RhoPartial{Gaussian: kern.Gaussian, First: own, Vals: make([]float64, l.M()-own)}
			for i := 0; i < m.N(); i++ {
				keep := own == 0
				for x := range part.Vals {
					part.Vals[x] = cr.Share(i, own+x)
					keep = keep || part.Vals[x] != 0
				}
				if keep {
					part.ID = m.ID(i)
					out.Emit(idKey(part.ID), points.AppendRhoPartial(nil, part))
				}
			}
			return nil
		},
	}
}

// LSHRhoAggJob is job 2: add each point's RhoPartials layout by layout into
// its M local densities ρ̂ᵢᵐ and fold those into ρ̂ᵢ. The paper takes the max
// (every local estimate undercounts, so the largest is closest to the truth
// — Theorem 1); conf can switch to the mean for the ablation study. Cutoff
// partials are neighbour counts, which add exactly in any grouping, so the
// addition is also the combiner; Gaussian partials are float sums, which do
// not, so they reach the reducer as emitted and are added in owner order.
func LSHRhoAggJob(conf mapreduce.Conf) *mapreduce.Job {
	job := &mapreduce.Job{
		Name: JobLSHRhoAgg,
		Conf: conf,
		Map:  identityMap,
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			total, err := addRhoPartials(values, ctx.Conf.GetInt(confM, 1))
			if err != nil {
				return err
			}
			var maxV, sum float64
			for _, v := range total.Vals {
				maxV = max(maxV, v)
				sum += v
			}
			agg := maxV
			if ctx.Conf.GetBool(confAggMean, false) {
				agg = sum / float64(len(total.Vals))
			}
			out.Emit(key, points.EncodeRhoValue(points.RhoValue{ID: total.ID, Rho: agg}))
			return nil
		},
	}
	if !kernelFromConf(conf).Gaussian {
		job.Combine = func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			total, err := addRhoPartials(values, ctx.Conf.GetInt(confM, 1))
			if err != nil {
				return err
			}
			out.Emit(key, points.AppendRhoPartial(nil, total))
			return nil
		}
	}
	return job
}

// addRhoPartials adds the partials of one point into its densities under
// all m layouts. A point has at most one non-empty partial per owner
// layout, and that partial starts at its owner, so adding them in order of
// First fixes the order of every float addition whatever order the shuffle
// delivered them in.
func addRhoPartials(values [][]byte, m int) (points.RhoPartial, error) {
	parts := make([]points.RhoPartial, len(values))
	for i, v := range values {
		p, err := points.DecodeRhoPartial(v)
		if err != nil {
			return points.RhoPartial{}, err
		}
		if p.First+len(p.Vals) > m || (i > 0 && p.Gaussian != parts[0].Gaussian) {
			return points.RhoPartial{}, fmt.Errorf("core: rho partial for id %d does not fit %d layouts of one kernel", p.ID, m)
		}
		parts[i] = p
	}
	slices.SortStableFunc(parts, func(a, b points.RhoPartial) int { return cmp.Compare(a.First, b.First) })
	total := points.RhoPartial{ID: parts[0].ID, Gaussian: parts[0].Gaussian, Vals: make([]float64, m)}
	for _, p := range parts {
		for i, v := range p.Vals {
			total.Vals[p.First+i] += v
		}
	}
	return total, nil
}

// LSHDeltaJob is job 3: LSH-partition the ρ̂-annotated points again and
// compute, per partition, the minimum distance from each point to a denser
// one among the pairs the partition owns (paironce.go), and that point's
// identity. δ̂ᵢ is the minimum over every denser point i shares a bucket
// with, and each such pair is owned exactly once, so the aggregation's min
// sees it. A point with no denser partner among a reducer's pairs emits
// nothing — except from layout 0, where it is the local absolute peak and
// gets δ̂ = +∞ and no upslope (Section IV-C), which the aggregation keeps
// only if no layout found better.
func LSHDeltaJob(conf mapreduce.Conf) *mapreduce.Job {
	layouts := lazyLayouts()
	return &mapreduce.Job{
		Name: JobLSHDel,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			rp, _, err := points.DecodeRhoPoint(value)
			if err != nil {
				return err
			}
			layouts(ctx.Conf).EachKey(rp.Pos, func(key string) { out.Emit(key, value) })
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			l := layouts(ctx.Conf)
			own, err := reducerLayout(key, l)
			if err != nil {
				return err
			}
			po := pairOncePool.Get().(*pairOnce)
			defer pairOncePool.Put(po)
			m, err := po.load(l, own, own, values, points.DecodeRhoPointsInto)
			if err != nil {
				return err
			}
			defer points.PutMatrix(m)
			blocks, skipped := po.owned(m.N(), own)
			if len(blocks) == 0 {
				countPairs(ctx, 0, skipped) // as in LSHRhoJob: nothing owned
				return nil
			}
			acc := &po.acc
			acc.Reset(m.N(), false)
			countPairs(ctx, kernels.Delta(m, blocks, acc), skipped)
			for i := 0; i < m.N(); i++ {
				id := m.ID(i)
				dv := points.DeltaValue{ID: id, Delta: math.Inf(1), Upslope: -1}
				if acc.Up[i] >= 0 {
					dv.Delta = math.Sqrt(acc.Best2[i])
					dv.Upslope = m.ID(int(acc.Up[i]))
				} else if own != 0 {
					continue
				}
				out.Emit(idKey(id), points.EncodeDeltaValue(dv))
			}
			return nil
		},
	}
}
