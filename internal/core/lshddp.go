package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/dp"
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

// nearK is the length of the neighbour list the ρ reducers keep per point
// (DESIGN.md "δ̂ from the ρ pass"). On the harness data 4 leaves 2.8 % of
// the points open and 16 doubles the list bytes to close the last 0.4 %.
// Partners at d_c or beyond are not listed: no point of the harness data
// has its nearest denser point there, and listing them cost 60 % more
// peak memory.
const nearK = 8

// CtrDeltaCertified counts the points whose δ̂ and upslope the ρ pass's
// neighbour lists decided, so that the δ job evaluated no pair for them.
const CtrDeltaCertified = "dp.delta.certified"

// RunLSHDDP executes the approximate LSH-DDP pipeline of Section IV as
// one job DAG:
//
//	node 0  d_c sampling (unless cfg.Dc is set)
//	        width solving: minimal w with 1−(1−P_ρ(w,d_c)^π)^M ≥ A
//	node 1  LSH partition (M layouts) + each partition's share of the
//	        local ρ̂ᵐ, every co-bucketed pair evaluated once (paironce.go),
//	        and each point's nearest partners within d_c among those pairs
//	node 2  ρ̂ aggregation: shares added per layout, then max over layouts
//	        (Theorem 1); partner lists merged into each point's nearest
//	        co-bucketed points within d_c
//	node 3  certify transform (driver side): δ̂/upslope of every point whose
//	        list holds a denser point — then its nearest denser co-bucketed one
//	node 4  ρ̂-annotate transform (driver side): the points left open, and the
//	        certified ones as candidates only where an open one needs them
//	node 5  LSH partition + local δ̂/upslope of the open points using
//	        aggregated ρ̂, pair-once again; local absolute peaks get δ̂ = +∞
//	        (Section IV-C)
//	node 6  δ̂ aggregation of nodes 3 and 5: min over layouts (Theorem 2)
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
	certified := g.Transform("lsh-delta-certify", func(in ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
		return certifyDelta(in[0], ds.N())
	}, rhoOut)
	rhoPts := g.Transform("lsh-rho-points", func(in ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
		return shipRows(ds, layoutsOf(conf), in[0], in[1])
	}, rhoOut, certified)
	dPartials := g.Job(LSHDeltaJob(conf).WithReduces(cfg.NumReduces), rhoPts)
	dOut := g.Job(DeltaAggJob(JobLSHDelAgg, mapreduce.Conf{}).WithReduces(cfg.NumReduces), dPartials, certified)

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
		once.Do(func() { l = layoutsOf(conf) })
		return l
	}
}

// layoutsOf returns the process-wide copy of the layouts conf describes.
func layoutsOf(conf mapreduce.Conf) *lsh.Layouts {
	return lsh.Cached(conf.GetInt(confDim, 0), conf.GetInt(confM, 1), conf.GetInt(confPi, 1),
		conf.GetFloat(confW, 1), conf.GetInt64(confSeed, 0))
}

// LSHRhoJob is job 1: the map side hashes every point under all M layouts
// and emits one copy per layout keyed by that layout's bucket; each reducer
// holds one LSH partition S_k^m (Section IV-B) and evaluates the pairs of it
// that no earlier layout's partition also holds (paironce.go). A pair within
// d_c counts toward the local density ρ̂ᵢᵐ′ of both points under every layout
// m′ ≥ m whose bucket they share, so the reducer emits, per point, its
// share of the densities under layouts m … M−1 as one RhoPartial, together
// with the point's nearK nearest partners within d_c among the pairs
// evaluated — when the share is not all zero (a partner within d_c always
// adds to it), and always from layout 0, so that every point reaches the
// aggregation. A cutoff reducer prunes the owned pairs whose runs lie d_c
// apart (rhoReach): such a pair adds to no share and enters no list.
func LSHRhoJob(conf mapreduce.Conf) *mapreduce.Job { return lshRhoJob(conf, rhoReach) }

// rhoReach is the squared distance at and beyond which a pair adds nothing to
// the ρ walk with k: Dc2 for the cutoff kernel, whose count and neighbour
// lists both stop short of it, and +Inf — none — for the Gaussian, whose
// weight never reaches zero.
func rhoReach(k kernels.Kernel) float64 {
	if k.Gaussian {
		return math.Inf(1)
	}
	return k.Dc2
}

// lshRhoJob is LSHRhoJob with the reach its reducers prune at.
func lshRhoJob(conf mapreduce.Conf, reach func(kernels.Kernel) float64) *mapreduce.Job {
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
			blocks, pruned, skipped := po.owned(m, own, reach(kern))
			if len(blocks) == 0 {
				// A later layout all of whose pairs earlier ones own or lie
				// apart: no share to report (layout 0 always has its
				// triangle).
				countPairs(ctx, 0, pruned, skipped)
				return nil
			}
			cr := &po.credit
			cr.Layouts, cr.Own, cr.Sig, cr.Near = l.M(), own, po.sig, &po.near
			cr.Reset(m.N(), kern)
			po.near.Reset(m.N(), nearK, kern.Dc2)
			countPairs(ctx, kernels.Rho(m, blocks, kern, cr), pruned, skipped)
			part := points.RhoPartial{Gaussian: kern.Gaussian, First: own, Vals: make([]float64, l.M()-own)}
			var enc []byte
			for i := 0; i < m.N(); i++ {
				keep := own == 0
				for x := range part.Vals {
					part.Vals[x] = cr.Share(i, own+x)
					keep = keep || part.Vals[x] != 0
				}
				if keep {
					part.ID = m.ID(i)
					part.Near = appendNeighbors(part.Near[:0], po.near.List(i))
					enc = points.AppendRhoPartial(enc[:0], part)
					out.Emit(idKey(part.ID), bytes.Clone(enc))
				}
			}
			return nil
		},
	}
}

// LSHRhoAggJob is job 2: add each point's RhoPartials layout by layout into
// its M local densities ρ̂ᵢᵐ and fold those into ρ̂ᵢ. The paper takes the max
// (every local estimate undercounts, so the largest is closest to the truth
// — Theorem 1); conf can switch to the mean for the ablation study. The
// partials' partner lists merge into the nearK nearest of all of them: the
// pairs of a point's owners are every point it shares a bucket with, each
// once, so that is its nearK nearest co-bucketed points within d_c, emitted
// beside ρ̂ᵢ.
// Cutoff partials are neighbour counts, which add exactly in any grouping,
// and the lists' top-k merges in any grouping too, so the fold is also the
// combiner; Gaussian partials are float sums, which do not add in any
// grouping, so they reach the reducer as emitted and are added in owner
// order.
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
			out.Emit(key, points.EncodeRhoValue(points.RhoValue{ID: total.ID, Rho: agg, Near: total.Near}))
			return nil
		},
	}
	if !kernelFromConf(conf).Gaussian {
		job.Combine = func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			total, err := addRhoPartials(values, ctx.Conf.GetInt(confM, 1))
			if err != nil {
				return err
			}
			// The clone drops the appends' spare capacity, which the
			// shuffle would otherwise hold until the reduce.
			out.Emit(key, bytes.Clone(points.AppendRhoPartial(nil, total)))
			return nil
		}
	}
	return job
}

// addRhoPartials adds the partials of one point into its densities under
// all m layouts and merges their partner lists. A point has at most one
// non-empty partial per owner layout, and that partial starts at its owner,
// so adding them in order of First fixes the order of every float addition
// whatever order the shuffle delivered them in.
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
	var near kernels.Near
	near.Reset(1, nearK, math.Inf(1))
	for _, p := range parts {
		for i, v := range p.Vals {
			total.Vals[p.First+i] += v
		}
		for _, e := range p.Near {
			near.Offer(0, kernels.TopKEntry{Row: e.ID, D2: e.D2})
		}
	}
	total.Near = appendNeighbors(nil, near.List(0))
	return total, nil
}

// appendNeighbors appends a kernels.Near list, whose entries carry point
// IDs, to dst in wire form.
func appendNeighbors(dst []points.Neighbor, list []kernels.TopKEntry) []points.Neighbor {
	for _, e := range list {
		dst = append(dst, points.Neighbor{ID: e.Row, D2: e.D2})
	}
	return dst
}

// certify decides point i's δ̂ and upslope from its list, the nearest points
// within d_c it shares a bucket with, in (d², ID) order. Every co-bucketed
// point before the list's first denser one is in the list, so that one is
// the nearest denser co-bucketed point, and among those at its distance the
// lowest ID — DeltaAggJob's tie rule. A list without a denser entry decides
// nothing — a denser point may lie beyond its last entry or beyond d_c — so
// ok is false and the δ job takes the point.
func certify(rho []float64, i int32, list []points.Neighbor) (dv points.DeltaValue, ok bool) {
	for _, e := range list {
		if dp.DenserVals(rho[e.ID], rho[i], e.ID, i) {
			return points.DeltaValue{ID: i, Delta: math.Sqrt(e.D2), Upslope: e.ID}, true
		}
	}
	return points.DeltaValue{}, false
}

// certifyDelta is the lsh-delta-certify transform: from the ρ aggregation's
// output it returns the δ̂ record of every point certify decides, keyed for
// DeltaAggJob, which takes them beside the δ job's.
func certifyDelta(rhoOut []mapreduce.Pair, n int) ([]mapreduce.Pair, error) {
	rho, near, err := decodeRhoValues(rhoOut, n)
	if err != nil {
		return nil, err
	}
	var out []mapreduce.Pair
	for i := range rho {
		if dv, ok := certify(rho, int32(i), near[i]); ok {
			out = append(out, mapreduce.Pair{Key: idKey(dv.ID), Value: points.EncodeDeltaValue(dv)})
		}
	}
	return out, nil
}

// shipRows is the lsh-rho-points transform: every point's δ-job input
// record (points.ShipMask). A point certifyDelta left open travels to all
// its buckets. A certified one is needed only as a candidate for the open
// points less dense than itself, so it travels to a bucket only when it is
// denser than the bucket's least dense open point; its mask lists those
// layouts. Every pair of an open point with a denser co-bucketed one thus
// still meets at its owner, and the δ job evaluates no other pair of
// interest. One more record, keyed unshippedKey, carries the co-bucketed
// pairs no reducer receives, for the δ job to count as skipped.
func shipRows(ds *points.Dataset, l *lsh.Layouts, rhoOut, certified []mapreduce.Pair) ([]mapreduce.Pair, error) {
	n := ds.N()
	rho, err := DecodeRhoArray(rhoOut, n)
	if err != nil {
		return nil, err
	}
	done := make([]bool, n)
	for _, p := range certified {
		dv, err := points.DecodeDeltaValue(p.Value)
		if err != nil {
			return nil, err
		}
		if dv.ID < 0 || int(dv.ID) >= n {
			return nil, fmt.Errorf("core: certified delta for out-of-range id %d", dv.ID)
		}
		done[dv.ID] = true
	}
	// Per bucket: its points, those shipped to it, and its least dense open
	// point — open points first, so that it is known when the certified ones
	// come. A NaN density is denser than nothing and has nothing denser than
	// it: such a point needs no candidate.
	type bucket struct {
		points, shipped int64
		least           int32
	}
	var buckets []bucket
	index := map[string]int32{}
	var kb lsh.KeyBuf
	each := func(i int, f func(m int, b *bucket)) {
		l.Hash(&kb, ds.Points[i].Pos)
		for m := range l.M() {
			key := kb.Key(m)
			x, ok := index[string(key)]
			if !ok {
				x = int32(len(buckets))
				index[string(key)] = x
				buckets = append(buckets, bucket{least: -1})
			}
			b := &buckets[x]
			b.points++
			f(m, b)
		}
	}
	for i := range n {
		if done[i] {
			continue
		}
		each(i, func(_ int, b *bucket) {
			b.shipped++
			if rho[i] == rho[i] && (b.least < 0 || dp.DenserVals(rho[b.least], rho[i], b.least, int32(i))) {
				b.least = int32(i)
			}
		})
	}
	out := make([]mapreduce.Pair, n, n+1)
	mask := make([]byte, (l.M()+7)/8)
	for i, p := range ds.Points {
		rec := points.AppendRhoPoint(make([]byte, 0, 16+8*ds.Dim()+len(mask)), points.RhoPoint{Point: p, Rho: rho[i]})
		if done[i] {
			clear(mask)
			each(i, func(m int, b *bucket) {
				if b.least >= 0 && dp.DenserVals(rho[i], rho[b.least], int32(i), b.least) {
					b.shipped++
					mask[m/8] |= 1 << (m % 8)
				}
			})
			rec = points.AppendShipMask(rec, mask)
		}
		out[i] = mapreduce.Pair{Value: rec}
	}
	var unshipped int64
	for _, b := range buckets {
		unshipped += (b.points*(b.points-1) - b.shipped*(b.shipped-1)) / 2
	}
	return append(out, mapreduce.Pair{Key: unshippedKey, Value: binary.AppendUvarint(nil, uint64(unshipped))}), nil
}

// unshippedKey keys shipRows' count of the co-bucketed pairs it sends to no
// reducer.
const unshippedKey = "lsh-ddp-delta.unshipped"

// LSHDeltaJob is job 3: LSH-partition the points the ρ pass left open, with
// the certified points each bucket needs as candidates (shipRows), and
// compute, per partition, the minimum distance from each open point to a
// denser one among the pairs the partition owns (paironce.go), and that
// point's identity. δ̂ᵢ is the minimum over every denser point i shares a
// bucket with; each such pair is owned exactly once and both its points
// travel to its owner, so the aggregation's min sees it. An open point with
// no denser partner among a reducer's pairs emits nothing — except from
// layout 0, where it is the local absolute peak and gets δ̂ = +∞ and no
// upslope (Section IV-C), which the aggregation keeps only if no layout
// found better. A certified point emits nothing: its record came from the
// certify transform. The map side reads every point's record, so it counts
// the certified ones, and it adds the pairs shipRows sent nowhere to the
// skipped ones: evaluated + skipped stays Σ C(|bucket|, 2) over every bucket
// of every layout, as on the ρ job.
func LSHDeltaJob(conf mapreduce.Conf) *mapreduce.Job {
	layouts := lazyLayouts()
	return &mapreduce.Job{
		Name: JobLSHDel,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			if key == unshippedKey {
				pairs, n := binary.Uvarint(value)
				if n != len(value) {
					return fmt.Errorf("core: malformed unshipped-pair count %x", value)
				}
				ctx.Counters.Add(CtrPairsSkipped, int64(pairs))
				return nil
			}
			rp, rest, err := points.DecodeRhoPoint(value)
			if err != nil {
				return err
			}
			certified, mask, err := points.ShipMask(rest)
			if err != nil {
				return err
			}
			l := layouts(ctx.Conf)
			if !certified {
				l.EachKey(rp.Pos, func(key string) { out.Emit(key, value) })
				return nil
			}
			ctx.Counters.Add(CtrDeltaCertified, 1)
			if len(mask) == 0 {
				return nil
			}
			if top := 8*(len(mask)-1) + bits.Len8(mask[len(mask)-1]); top > l.M() {
				return fmt.Errorf("core: point %d is shipped to layout %d of %d", rp.ID, top-1, l.M())
			}
			layout := 0
			l.EachKey(rp.Pos, func(key string) {
				if layout < 8*len(mask) && mask[layout/8]>>(layout%8)&1 == 1 {
					out.Emit(key, value)
				}
				layout++
			})
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
			m, err := po.load(l, own, own, values, po.decodeShipped)
			if err != nil {
				return err
			}
			defer points.PutMatrix(m)
			// δ̂ needs every owned pair, however far: no reach prunes.
			blocks, _, skipped := po.owned(m, own, math.Inf(1))
			if len(blocks) == 0 {
				countPairs(ctx, 0, 0, skipped) // as in LSHRhoJob: nothing owned
				return nil
			}
			acc := &po.acc
			acc.Reset(m.N(), false)
			countPairs(ctx, kernels.Delta(m, blocks, acc), 0, skipped)
			for i := 0; i < m.N(); i++ {
				if po.certified[po.order[i]] {
					continue
				}
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
