package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dp"
	"repro/internal/kernels"
	"repro/internal/knob"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
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
}

// Validate refuses a negative, NaN or infinite M, Pi, W or Dc, and an
// Accuracy outside [0, 1), which Eq. 5 has no width for, whatever W is.
func (c *LSHConfig) Validate() error {
	return cmp.Or(c.Config.Validate(), knob.Fraction("core: Accuracy", c.Accuracy),
		knob.Count("core: M", c.M), knob.Count("core: Pi", c.Pi), knob.Real("core: W", c.W))
}

// defaults sets each 0 knob with a constant default to it — Accuracy 0.99,
// M 10, Pi 3 — and validates c.
func (c *LSHConfig) defaults() error {
	c.Accuracy, c.M, c.Pi = cmp.Or(c.Accuracy, 0.99), cmp.Or(c.M, 10), cmp.Or(c.Pi, 3)
	return c.Validate()
}

// jobConf returns the Conf every LSH job of a run at cutoff dc on
// dim-dimensional points reads, and the bucket width w in it: c.W, or when
// that is 0 the width lsh.SolveWidth derives from c.Accuracy. c holds its
// defaults.
func (c *LSHConfig) jobConf(dc float64, dim int) (conf mapreduce.Conf, w float64, err error) {
	if w = c.W; w <= 0 {
		if w, err = lsh.SolveWidth(c.Accuracy, dc, c.Pi, c.M); err != nil {
			return nil, 0, err
		}
	}
	conf = mapreduce.Conf{}
	conf.SetFloat(confDc, dc)
	conf.SetInt(confDim, dim)
	conf.SetInt(confM, c.M)
	conf.SetInt(confPi, c.Pi)
	conf.SetFloat(confW, w)
	conf.SetInt64(confSeed, c.Seed)
	return conf, w, nil
}

// nearK is the length of the neighbour list the ρ reducers keep per point
// (DESIGN.md "δ̂ from the ρ pass"). 8 is the shuffle minimum on the
// benchmark harness's batch-lshddp data: at nearK 2 / 4 / 6 / 8 / 12 / 16 it
// shuffles 1 370.9 / 1 072.7 / 940.2 / 851.3 / 882.1 / 947.3 bytes and
// evaluates 2 147.6 / 1 345.5 / 1 129.3 / 1 022.0 / 1 006.8 / 1 002.0
// distances per point at seed 1 (seed 2: 1 365.5 / 1 126.7 / 936.6 / 852.7
// / 875.0 / 948.6 bytes). Below 8 the δ job grows by more than the shorter
// lists save; above it the lists grow by more than the δ job shrinks.
// Partners at d_c or beyond are not listed: no point of the harness data
// has its nearest denser point there, and listing them cost 60 % more
// peak memory.
const nearK = 8

// CtrDeltaCertified counts the points whose δ̂ and upslope the ρ pass's
// neighbour lists decided, so that the δ job evaluated no pair for them.
const CtrDeltaCertified = "dp.delta.certified"

// RunLSHDDP executes the approximate LSH-DDP pipeline of Section IV, one
// job after another:
//
//	job 0   d_c sampling (unless cfg.Dc is set)
//	        width solving: minimal w with 1−(1−P_ρ(w,d_c)^π)^M ≥ A
//	driver  planRho: every point's bucket under every layout, and the
//	        layouts where the point's run owns a pair it does not prune
//	job 1   LSH partition (M layouts) + each partition's share of the
//	        local ρ̂ᵐ, every co-bucketed pair evaluated once (paironce.go),
//	        and each point's nearest partners within d_c among those pairs
//	job 2   ρ̂ aggregation: shares added per layout, then max over layouts
//	        (Theorem 1); partner lists merged into each point's nearest
//	        co-bucketed points within d_c
//	driver  certify, on job 2's ρ̂ and lists, decoded once: δ̂/upslope of
//	        every point whose list holds a denser point — then its nearest
//	        denser co-bucketed one; the other points stay open
//	driver  shipRows: the open points, and the certified ones as
//	        candidates only where an open one needs them
//	job 3   LSH partition + local δ̂/upslope of the open points using
//	        aggregated ρ̂, pair-once again; local absolute peaks get δ̂ = +∞
//	        (Section IV-C)
//	job 4   δ̂ aggregation of job 3's records: min over layouts (Theorem 2)
//	driver  job 4's records decoded into the open points' δ̂/upslope
//
// The returned Delta may contain +∞ for points that looked like the
// absolute peak in every layout; Result.Cluster rectifies them to the max
// finite δ before peak selection, as the paper prescribes.
func RunLSHDDP(ctx context.Context, ds *points.Dataset, cfg LSHConfig) (*Result, error) {
	start := time.Now()
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.N() < 2 {
		return nil, fmt.Errorf("core: need at least 2 points, have %d", ds.N())
	}
	sess := cfg.DagSession()
	mark := sess.Mark()
	input := sess.Stage(InputPairs(ds))

	dc, err := ChooseDc(ctx, sess, ds, &cfg.Config, input)
	if err != nil {
		return nil, err
	}
	conf, w, err := cfg.jobConf(dc, ds.Dim())
	if err != nil {
		return nil, err
	}
	layouts, err := layoutsOf(conf)
	if err != nil {
		return nil, err
	}
	rowKeys, plan, err := planRho(input, layouts, conf)
	if err != nil {
		return nil, err
	}
	partials, err := sess.Run(ctx, LSHRhoJob(conf), plan.rhoInput(input))
	if err != nil {
		return nil, err
	}
	if partials, err = mapreduce.SortByIDKey(partials); err != nil {
		return nil, err
	}
	rhoOut, err := sess.Run(ctx, LSHRhoAggJob(conf), partials)
	if err != nil {
		return nil, err
	}
	rho, near, err := decodeRhoValues(rhoOut, ds.N())
	if err != nil {
		return nil, err
	}
	delta, upslope, open := certify(rho, near)
	dPartials, err := sess.Run(ctx, LSHDeltaJob(conf), shipRows(ds, rowKeys, rho, open))
	if err != nil {
		return nil, err
	}
	if dPartials, err = mapreduce.SortByIDKey(dPartials); err != nil {
		return nil, err
	}
	dOut, err := sess.Run(ctx, DeltaAggJob(JobLSHDelAgg, mapreduce.Conf{}), dPartials)
	if err != nil {
		return nil, err
	}
	if err := decodeOpenDeltas(dOut, delta, upslope, open); err != nil {
		return nil, err
	}

	res := &Result{Rho: rho, Delta: delta, Upslope: upslope, plan: plan}
	res.Stats.Dc = dc
	res.Stats.W = w
	res.Stats.Pi = cfg.Pi
	res.Stats.M = cfg.M
	CollectStats(&res.Stats, sess, mark, start)
	return res, nil
}

// layoutsOf draws the layouts conf describes. Workers of the distributed
// engine rebuild them from the job Conf instead of receiving serialized hash
// functions: the draws are seeded, so every worker draws identical ones.
// Jobs resolve them once per instance through mapreduce.ConfOnce.
func layoutsOf(conf mapreduce.Conf) (*lsh.Layouts, error) {
	m, pi := conf.GetInt(confM, 1), conf.GetInt(confPi, 1)
	if m < 1 || pi < 1 {
		return nil, fmt.Errorf("core: %d layouts of %d functions, want at least 1 of 1", m, pi)
	}
	return lsh.NewLayouts(conf.GetInt(confDim, 0), m, pi, conf.GetFloat(confW, 1), conf.GetInt64(confSeed, 0)), nil
}

// LSHRhoJob is job 1: the map side hashes every point under all M layouts
// and emits a copy keyed by that layout's bucket to every layout its record's
// ship mask lists (planRho), or to all M when the record has none; each reducer
// holds one LSH partition S_k^m (Section IV-B) and evaluates the pairs of it
// that no earlier layout's partition also holds (paironce.go). A pair within
// d_c counts toward the local density ρ̂ᵢᵐ′ of both points under every layout
// m′ ≥ m whose bucket they share, so the reducer emits, per point, its
// share of the densities under layouts m … M−1 as one RhoPartial, together
// with the point's nearK nearest partners within d_c among the pairs
// evaluated — when the share is not all zero (a partner within d_c always
// adds to it), and always from layout 0, so that every point reaches the
// aggregation. A reducer prunes the owned pairs whose runs lie d_c apart:
// such a pair adds to no share and enters no list. The map side adds the
// pairs planRho sent nowhere to the pruned and skipped counts.
func LSHRhoJob(conf mapreduce.Conf) *mapreduce.Job { return lshRhoJob(conf, true) }

// lshRhoJob is LSHRhoJob, whose reducers prune only when prune is set; the
// unpruned job is the runs-apart tests' reference.
func lshRhoJob(conf mapreduce.Conf, prune bool) *mapreduce.Job {
	drawn := mapreduce.ConfOnce(layoutsOf)
	return &mapreduce.Job{
		Name: JobLSHRho,
		Conf: conf,
		Map:  plannedMap(drawn, 0),
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			l, err := drawn(ctx.Conf)
			if err != nil {
				return err
			}
			own, err := reducerLayout(key, l)
			if err != nil {
				return err
			}
			dc := ctx.Conf.GetFloat(confDc, 0)
			kern := kernels.Kernel{Dc2: dc * dc}
			po := pairOncePool.Get().(*pairOnce)
			defer pairOncePool.Put(po)
			m, err := po.load(l, own, l.M(), values, points.DecodePointsInto)
			if err != nil {
				return err
			}
			defer points.PutMatrix(m)
			reach := kern.Dc2
			if !prune {
				reach = math.Inf(1)
			}
			blocks, pruned, skipped := po.owned(m, own, reach)
			if len(blocks) == 0 {
				// A later layout all of whose pairs earlier ones own or lie
				// apart: no share to report (layout 0 always has its
				// triangle).
				countPairs(ctx, 0, pruned, skipped)
				return nil
			}
			cr := &po.credit
			cr.Layouts, cr.Own, cr.Sig, cr.Near = l.M(), own, po.sig, &po.near
			cr.Reset(m.N())
			po.near.Reset(m.N(), nearK, kern.Dc2)
			countPairs(ctx, kernels.Rho(m, blocks, kern, cr), pruned, skipped)
			part := points.RhoPartial{First: own, Vals: make([]float64, l.M()-own)}
			var enc []byte
			for i := 0; i < m.N(); i++ {
				keep := own == 0
				for x := range part.Vals {
					part.Vals[x] = cr.Share(i, own+x)
					keep = keep || part.Vals[x] != 0
				}
				if keep {
					part.Near = appendNeighbors(part.Near[:0], po.near.List(i))
					enc = points.AppendRhoPartial(enc[:0], part)
					out.Emit(mapreduce.IDKey(m.ID(i)), bytes.Clone(enc))
				}
			}
			return nil
		},
	}
}

// LSHRhoAggJob is job 2: add each point's RhoPartials layout by layout into
// its M local densities ρ̂ᵢᵐ and fold those into ρ̂ᵢ, their max (every local
// estimate undercounts, so the largest is closest to the truth — Theorem 1).
// The partials' partner lists merge into the nearK nearest of all of them: the
// pairs of a point's owners are every point it shares a bucket with, each
// once, so that is its nearK nearest co-bucketed points within d_c, emitted
// beside ρ̂ᵢ.
// Partials are neighbour counts, which add exactly in any grouping, and the
// lists' top-k merges in any grouping too, so the fold is also the combiner.
func LSHRhoAggJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: JobLSHRhoAgg,
		Conf: conf,
		Map:  identityMap,
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			s := rhoAggs.Get().(*rhoAgg)
			defer rhoAggs.Put(s)
			total, err := s.add(key, values, ctx.Conf.GetInt(confM, 1))
			if err != nil {
				return err
			}
			var rho float64
			for _, v := range total.Vals {
				rho = max(rho, v)
			}
			out.Emit(key, points.EncodeRhoValue(points.RhoValue{Rho: rho, Near: total.Near}))
			return nil
		},
		Combine: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			s := rhoAggs.Get().(*rhoAgg)
			defer rhoAggs.Put(s)
			total, err := s.add(key, values, ctx.Conf.GetInt(confM, 1))
			if err != nil {
				return err
			}
			// The shuffle keeps what is emitted: an exact-size copy, never
			// the pooled encoding buffer.
			s.enc = points.AppendRhoPartial(s.enc[:0], total)
			out.Emit(key, bytes.Clone(s.enc))
			return nil
		},
	}
}

// rhoAgg is the ρ̂ aggregation's scratch, pooled across its keys and tasks:
// the partner-list merge, the summed counts and merged list it returns, the
// decoded partial and the combiner's encoding.
type rhoAgg struct {
	near  kernels.Near
	total points.RhoPartial
	part  points.RhoPartial
	enc   []byte
}

var rhoAggs = sync.Pool{New: func() any { return new(rhoAgg) }}

// add adds the partials of the point key names into its neighbour counts
// under all m layouts and merges their partner lists. Whole numbers below
// 2⁵³ add exactly in any order and the lists' top-k depends only on the
// entries offered, so the result is the same whatever order the shuffle
// delivered the partials in. The result aliases s until its next add.
func (s *rhoAgg) add(key string, values [][]byte, m int) (points.RhoPartial, error) {
	id, err := mapreduce.ParseIDKey(key)
	if err != nil {
		return points.RhoPartial{}, err
	}
	s.total.Vals = slices.Grow(s.total.Vals[:0], m)[:m]
	clear(s.total.Vals)
	s.near.Reset(1, nearK, math.Inf(1))
	for _, v := range values {
		p, err := points.DecodeRhoPartial(v, id, s.part)
		if err != nil {
			return points.RhoPartial{}, err
		}
		s.part = p
		if p.First+len(p.Vals) > m {
			return points.RhoPartial{}, fmt.Errorf("core: rho partial for id %d does not fit %d layouts", id, m)
		}
		for x, c := range p.Vals {
			s.total.Vals[p.First+x] += c
		}
		for _, e := range p.Near {
			s.near.Offer(0, kernels.TopKEntry{Row: e.ID, D2: e.D2})
		}
	}
	s.total.Near = appendNeighbors(s.total.Near[:0], s.near.List(0))
	return s.total, nil
}

// appendNeighbors appends a kernels.Near list, whose entries carry point
// IDs, to dst in wire form.
func appendNeighbors(dst []points.Neighbor, list []kernels.TopKEntry) []points.Neighbor {
	for _, e := range list {
		dst = append(dst, points.Neighbor{ID: e.Row, D2: e.D2})
	}
	return dst
}

// certify decides δ̂ and upslope from the ρ aggregation's lists: near[i]
// holds the nearest points within d_c that point i shares a bucket with, in
// (d², ID) order. Every co-bucketed point before the list's first denser one
// is in the list, so that one is the nearest denser co-bucketed point, and
// among those at its distance the lowest ID — DeltaAggJob's tie rule. A list
// without a denser entry decides nothing — a denser point may lie beyond its
// last entry or beyond d_c — so the point stays open, and the δ job takes it.
func certify(rho []float64, near [][]points.Neighbor) (delta []float64, upslope []int32, open []bool) {
	n := len(rho)
	delta, upslope, open = make([]float64, n), make([]int32, n), make([]bool, n)
	for i, list := range near {
		open[i] = true
		for _, e := range list {
			if dp.DenserVals(rho[e.ID], rho[i], e.ID, int32(i)) {
				delta[i], upslope[i], open[i] = math.Sqrt(e.D2), e.ID, false
				break
			}
		}
	}
	return delta, upslope, open
}

// shipPlan is the plan of an LSH job whose driver ships a point only to some
// of its buckets: planRho's for the ρ job and the halo job, kept in the
// Result of the run that made it for RunLSHHalo, and shipRows' for the δ
// job. It holds the Conf it was made under (none on a δ plan), every point's
// ship mask, point i's stride bytes at masks[i·stride:], and the value of
// the unshippedKey record.
type shipPlan struct {
	conf   mapreduce.Conf
	masks  []byte
	unsent []byte
}

// input returns a planned job's input: point i's record is value(i, mask),
// which must copy mask, its ship mask in wire form (points.AppendShipMask),
// behind whatever its reducers read; the unshippedKey record follows.
func (p *shipPlan) input(n int, value func(i int, mask []byte) []byte) []mapreduce.Pair {
	stride := len(p.masks) / max(n, 1)
	out := make([]mapreduce.Pair, n, n+1)
	var wire []byte
	for i := range out {
		wire = points.AppendShipMask(wire[:0], p.masks[i*stride:][:stride])
		out[i] = mapreduce.Pair{Value: value(i, wire)}
	}
	return append(out, mapreduce.Pair{Key: unshippedKey, Value: p.unsent})
}

// rhoInput returns the ρ job's input: every InputPairs record of input
// with its point's ship mask.
func (p *shipPlan) rhoInput(input []mapreduce.Pair) []mapreduce.Pair {
	return p.input(len(input), func(i int, mask []byte) []byte {
		v := input[i].Value
		return append(append(make([]byte, 0, len(v)+len(mask)), v...), mask...)
	})
}

// planRho plans the ρ job (DESIGN.md "Pair ownership", the ρ shipping rule),
// whose plan the halo job takes too, and returns every point's bucket ids
// under the M layouts of l (lsh.Index.RowKeys: point i's at [i·M, (i+1)·M)),
// which shipRows reads later. It indexes the points of input, InputPairs'
// records, groups them by bucket under each later layout and runs that
// layout's ownership walk, ownedRuns, on each bucket, at the d_c its
// reducers read from conf. A point's ship mask lists
// layout 0 and each layout where its run keeps a pair. A reducer then
// receives whole runs, every one that keeps a pair and so its partners, so
// each run's box, the blocks' pair set and everything it emits stay what
// they are with every copy shipped. The plan's unshipped-pair record
// carries the pairs of the copies not sent, pruned and skipped, for the map
// side to count.
func planRho(input []mapreduce.Pair, l *lsh.Layouts, conf mapreduce.Conf) (rowKeys []int32, plan *shipPlan, err error) {
	values := make([][]byte, len(input))
	for i, p := range input {
		values[i] = p.Value
	}
	pts := new(points.Matrix)
	if err := points.DecodePointsInto(pts, values); err != nil {
		return nil, nil, err
	}
	n, nl := pts.N(), l.M()
	ix := l.BuildIndex(pts.Data(), n, runtime.GOMAXPROCS(0))
	dc := conf.GetFloat(confDc, 0)
	// Layouts 1 … M−1 are planned side by side, each goroutine taking the
	// next layout and marking only its row of sent: sent[m][i] says point i
	// travels to its layout-m bucket.
	sent := make([][]bool, nl)
	var next atomic.Int32
	var pruned, skipped atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), nl-1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := runPlanner{ix: ix, nl: nl, pts: pts, reach2: dc * dc, po: pairOncePool.Get().(*pairOnce),
				m: points.GetMatrix(), local: make([]int32, ix.Len())}
			ends, grouped := make([]int32, ix.Len()+1), make([]int32, n)
			defer pairOncePool.Put(rp.po)
			defer points.PutMatrix(rp.m)
			for b := range rp.local {
				rp.local[b] = -1
			}
			for own := int(next.Add(1)); own < nl; own = int(next.Add(1)) {
				sent[own] = make([]bool, n)
				// The points grouped by layout-own bucket, each bucket
				// ascending, with one counting pass over the layout's
				// RowKeys column: count, prefix-sum, place. Bucket b's
				// points then end at grouped[ends[b]], and a bucket of
				// another layout is empty.
				col := ix.RowKeys[own:]
				clear(ends)
				for i := range n {
					ends[col[i*nl]+1]++
				}
				for b := 1; b < len(ends); b++ {
					ends[b] += ends[b-1]
				}
				for i := range n {
					grouped[ends[col[i*nl]]] = int32(i)
					ends[col[i*nl]]++
				}
				lo := int32(0)
				for _, hi := range ends[:ix.Len()] {
					if hi > lo {
						p, s := rp.plan(own, grouped[lo:hi], sent[own])
						pruned.Add(p)
						skipped.Add(s)
					}
					lo = hi
				}
			}
		}()
	}
	wg.Wait()
	stride := (nl + 7) / 8
	plan = &shipPlan{conf: conf.Clone(), masks: make([]byte, n*stride)}
	for i := range n {
		mask := plan.masks[i*stride:][:stride]
		mask[0] = 1
		for m := 1; m < nl; m++ {
			if sent[m][i] {
				mask[m/8] |= 1 << (m % 8)
			}
		}
	}
	plan.unsent = binary.AppendUvarint(binary.AppendUvarint(nil, uint64(pruned.Load())), uint64(skipped.Load()))
	return ix.RowKeys, plan, nil
}

// runPlanner is the scratch of one of planRho's goroutines.
type runPlanner struct {
	ix        *lsh.Index
	nl        int
	pts       *points.Matrix // point i at row i
	reach2    float64        // the ρ reducers' Dc2
	po        *pairOnce
	m         *points.Matrix
	local     []int32 // signIndex's
	rows      []int32
	ships     []bool
	apartRuns [][2]int
}

// plan walks the layout-own bucket of ix whose points are bucket, as its
// reducer would with every copy shipped, and marks in sent the points of the
// runs that keep a pair. It returns the pairs of the other points' copies:
// those the walk prunes and those it skips.
func (rp *runPlanner) plan(own int, bucket []int32, sent []bool) (pruned, skipped int64) {
	po, m := rp.po, rp.m
	ids := po.signIndex(rp.ix, rp.nl, bucket, own, rp.local)
	rp.rows = rp.rows[:0]
	for _, r := range po.sortRuns(own, own, ids) {
		rp.rows = append(rp.rows, bucket[r])
	}
	m.Gather(rp.pts, rp.rows)
	ships := append(rp.ships[:0], make([]bool, m.N())...)
	apartRuns := rp.apartRuns[:0]
	po.ownedRuns(m, own, rp.reach2, func(g, h int, kept bool) {
		if kept {
			ships[g], ships[h] = true, true
		} else {
			apartRuns = append(apartRuns, [2]int{g, h})
		}
	})
	rp.ships, rp.apartRuns = ships, apartRuns
	segs := po.segs
	size := func(g int) int64 { return int64(segs[g+1] - segs[g]) }
	var kept int64
	for g := 0; g+1 < len(segs); g++ {
		if ships[g] {
			kept += size(g)
			for _, id := range m.IDs()[segs[g]:segs[g+1]] {
				sent[id] = true
			}
		}
	}
	for _, gh := range apartRuns {
		if !ships[gh[0]] || !ships[gh[1]] {
			pruned += size(gh[0]) * size(gh[1])
		}
	}
	n := int64(m.N())
	return pruned, n*(n-1)/2 - kept*(kept-1)/2 - pruned
}

// shipRows returns the δ job's input: every point's record
// (points.ShipMask) through its ship plan. A point certify left open travels
// to all its buckets. A certified one is needed only as a candidate for the
// open points less dense than itself, so it travels to a bucket only when it
// is denser than the bucket's least dense open point; its mask lists those
// layouts. Every pair of an open point with a denser co-bucketed one thus
// still meets at its owner, and the δ job evaluates no other pair of
// interest. The plan's unshipped-pair record carries the co-bucketed pairs
// no reducer receives, for the δ job to count as skipped. rowKeys holds
// every point's bucket ids, as planRho returns them.
func shipRows(ds *points.Dataset, rowKeys []int32, rho []float64, open []bool) []mapreduce.Pair {
	n := ds.N()
	nl := len(rowKeys) / n
	// Per bucket: its points, those shipped to it, and its least dense open
	// point — open points first, so that it is known when the certified ones
	// come. A NaN density is denser than nothing and has nothing denser than
	// it: such a point needs no candidate.
	type bucket struct {
		points, shipped int64
		least           int32
	}
	buckets := make([]bucket, slices.Max(rowKeys)+1)
	for x := range buckets {
		buckets[x].least = -1
	}
	each := func(i int, f func(m int, b *bucket)) {
		for m, x := range rowKeys[i*nl:][:nl] {
			b := &buckets[x]
			b.points++
			f(m, b)
		}
	}
	for i := range n {
		if !open[i] {
			continue
		}
		each(i, func(_ int, b *bucket) {
			b.shipped++
			if rho[i] == rho[i] && (b.least < 0 || dp.DenserVals(rho[b.least], rho[i], b.least, int32(i))) {
				b.least = int32(i)
			}
		})
	}
	stride := (nl + 7) / 8
	plan := &shipPlan{masks: make([]byte, n*stride)}
	for i := range n {
		if open[i] {
			continue
		}
		mask := plan.masks[i*stride:][:stride]
		each(i, func(m int, b *bucket) {
			if b.least >= 0 && dp.DenserVals(rho[i], rho[b.least], int32(i), b.least) {
				b.shipped++
				mask[m/8] |= 1 << (m % 8)
			}
		})
	}
	var skipped int64
	for _, b := range buckets {
		skipped += (b.points*(b.points-1) - b.shipped*(b.shipped-1)) / 2
	}
	plan.unsent = binary.AppendUvarint(binary.AppendUvarint(nil, 0), uint64(skipped))
	return plan.input(n, func(i int, mask []byte) []byte {
		rec := points.AppendRhoPoint(make([]byte, 0, 18+8*ds.Dim()+len(mask)), points.RhoPoint{Point: ds.Points[i], Rho: rho[i]})
		if open[i] {
			return rec // no mask: every layout
		}
		return append(rec, mask...)
	})
}

// unshippedKey keys the record that carries an LSH job's count of the
// co-bucketed pairs its ship plan sent to no reducer: the pruned then the
// skipped ones, as uvarints.
const unshippedKey = "lsh-ddp.unshipped"

// countUnshipped adds the pairs of an unshippedKey record to the pruned and
// skipped counters.
func countUnshipped(ctx *mapreduce.TaskContext, value []byte) error {
	pruned, k := binary.Uvarint(value)
	if k <= 0 {
		return fmt.Errorf("core: malformed unshipped-pair count %x", value)
	}
	skipped, j := binary.Uvarint(value[k:])
	if j <= 0 || k+j != len(value) {
		return fmt.Errorf("core: malformed unshipped-pair count %x", value)
	}
	ctx.Counters.Add(CtrPairsPruned, int64(pruned))
	ctx.Counters.Add(CtrPairsSkipped, int64(skipped))
	return nil
}

// plannedMap is the map of the LSH jobs planRho plans, the ρ job and the
// halo job: a record is a point, extra bytes the job's reducers read after
// it, and an optional ship mask, and the point and its extra bytes travel as
// shipTo says. The unshippedKey record's pairs count as pruned and
// skipped.
func plannedMap(drawn func(mapreduce.Conf) (*lsh.Layouts, error), extra int) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
		if key == unshippedKey {
			return countUnshipped(ctx, value)
		}
		p, rest, err := points.DecodePoint(value)
		if err != nil {
			return err
		}
		if len(rest) < extra {
			return fmt.Errorf("core: point %d is followed by %d bytes, want at least %d", p.ID, len(rest), extra)
		}
		masked, mask, err := points.ShipMask(rest[extra:])
		if err != nil {
			return err
		}
		l, err := drawn(ctx.Conf)
		if err != nil {
			return err
		}
		return shipTo(l, p, masked, mask, value[:len(value)-len(rest)+extra], out)
	}
}

// shipTo emits value under p's key in every layout when its record carries
// no ship mask (masked false), and otherwise in the layouts the mask lists.
func shipTo(l *lsh.Layouts, p points.Point, masked bool, mask, value []byte, out mapreduce.Emitter) error {
	if !masked {
		l.EachKey(p.Pos, func(key string) { out.Emit(key, value) })
		return nil
	}
	if len(mask) == 0 {
		return nil
	}
	if top := 8*(len(mask)-1) + bits.Len8(mask[len(mask)-1]); top > l.M() {
		return fmt.Errorf("core: point %d is shipped to layout %d of %d", p.ID, top-1, l.M())
	}
	layout := 0
	l.EachKey(p.Pos, func(key string) {
		if layout < 8*len(mask) && mask[layout/8]>>(layout%8)&1 == 1 {
			out.Emit(key, value)
		}
		layout++
	})
	return nil
}

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
// found better. A certified point emits nothing: the driver's certify
// decided it. The map side reads every point's record, so it counts the
// certified ones, and it adds the pairs shipRows sent nowhere to the skipped
// ones: evaluated + skipped stays Σ C(|bucket|, 2) over every bucket of
// every layout, as on the ρ job.
func LSHDeltaJob(conf mapreduce.Conf) *mapreduce.Job {
	drawn := mapreduce.ConfOnce(layoutsOf)
	return &mapreduce.Job{
		Name: JobLSHDel,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			if key == unshippedKey {
				return countUnshipped(ctx, value)
			}
			rp, rest, err := points.DecodeRhoPoint(value)
			if err != nil {
				return err
			}
			certified, mask, err := points.ShipMask(rest)
			if err != nil {
				return err
			}
			l, err := drawn(ctx.Conf)
			if err != nil {
				return err
			}
			if certified {
				ctx.Counters.Add(CtrDeltaCertified, 1)
			}
			return shipTo(l, rp.Point, certified, mask, value, out)
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			l, err := drawn(ctx.Conf)
			if err != nil {
				return err
			}
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
				dv := points.DeltaValue{Delta: math.Inf(1), Upslope: -1}
				if acc.Up[i] >= 0 {
					dv.Delta = math.Sqrt(acc.Best2[i])
					dv.Upslope = m.ID(int(acc.Up[i]))
				} else if own != 0 {
					continue
				}
				out.Emit(mapreduce.IDKey(m.ID(i)), points.EncodeDeltaValue(dv))
			}
			return nil
		},
	}
}
