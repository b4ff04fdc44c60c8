package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/kernels"
	"repro/internal/knob"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// BasicConfig configures Basic-DDP.
type BasicConfig struct {
	Config
	// BlockSize is the target points-per-block for the blocking strategy
	// (the paper's experiments use 500). The number of blocks is
	// ceil(N / BlockSize).
	BlockSize int
}

// Validate refuses a negative, NaN or infinite BlockSize or Dc.
func (c *BasicConfig) Validate() error {
	return cmp.Or(c.Config.Validate(), knob.Count("core: BlockSize", c.BlockSize))
}

// RunBasicDDP executes the exact Basic-DDP pipeline of Section III, one job
// after another:
//
//	job 0   d_c sampling (unless cfg.Dc is set)
//	job 1   blocked all-pairs ρ partials
//	job 2   ρ aggregation (sum)
//	driver  every point annotated with its ρ
//	job 3   blocked all-pairs δ partials (+ max-distance fallbacks)
//	job 4   δ aggregation (min; fallback max for the absolute peak)
//
// The blocking follows the paper exactly: the point set is split into n
// blocks; block k is shuffled only to reducers l ≥ k, so reducer l
// materializes every block pair (k, l), k ≤ l, exactly once — each point is
// shuffled (n−k) times, (n+1)/2 on average, and every unordered point pair
// is evaluated exactly once globally.
func RunBasicDDP(ctx context.Context, ds *points.Dataset, cfg BasicConfig) (*Result, error) {
	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.BlockSize = cmp.Or(cfg.BlockSize, 500)
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
	nBlocks := (ds.N() + cfg.BlockSize - 1) / cfg.BlockSize

	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, dc)
	conf.SetInt(confBlocks, nBlocks)

	partials, err := sess.Run(ctx, BasicRhoJob(conf), input)
	if err != nil {
		return nil, err
	}
	if partials, err = mapreduce.SortByIDKey(partials); err != nil {
		return nil, err
	}
	rhoOut, err := sess.Run(ctx, basicRhoAggJob(mapreduce.Conf{}), partials)
	if err != nil {
		return nil, err
	}
	rho, err := DecodeRhoArray(rhoOut, ds.N())
	if err != nil {
		return nil, err
	}
	dPartials, err := sess.Run(ctx, BasicDeltaJob(conf), RhoPointPairs(ds, rho))
	if err != nil {
		return nil, err
	}
	if dPartials, err = mapreduce.SortByIDKey(dPartials); err != nil {
		return nil, err
	}
	dOut, err := sess.Run(ctx, DeltaAggJob(JobBasicDAgg, mapreduce.Conf{}), dPartials)
	if err != nil {
		return nil, err
	}
	delta, upslope, err := DecodeDeltaArrays(dOut, ds.N())
	if err != nil {
		return nil, err
	}

	res := &Result{Rho: rho, Delta: delta, Upslope: upslope}
	res.Stats.Dc = dc
	CollectStats(&res.Stats, sess, mark, start)
	return res, nil
}

// blockOf assigns a point to a block by ID. IDs are dense, so blocks are
// near-uniform.
func blockOf(id int32, nBlocks int) int { return int(id) % nBlocks }

// tagged value: uint32 source block | payload.
func tagBlock(k int, payload []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(k))
	return append(buf, payload...)
}

// homeBlock splits a tagBlock record for points.DecodeHomeFirstInto: home
// when it carries block l, so the diagonal range is block l's own rows.
func homeBlock(l int) func(v []byte) (bool, []byte, error) {
	return func(v []byte) (bool, []byte, error) {
		if len(v) < 4 {
			return false, nil, fmt.Errorf("core: short block tag")
		}
		return int(binary.LittleEndian.Uint32(v)) == l, v[4:], nil
	}
}

// BasicRhoJob is job 1: blocked exact ρ partials. Map routes block k to
// reducers l = k..n−1; reducer l computes the diagonal pair (l,l) and every
// cross pair (k,l), k < l, and emits one partial count per point (always
// for its home block l, only when non-zero for visiting blocks, since the
// aggregation treats absence as zero — except each point's home reducer
// guarantees at least one record).
func BasicRhoJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: JobBasicRho,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			n := ctx.Conf.GetInt(confBlocks, 1)
			p, _, err := points.DecodePoint(value)
			if err != nil {
				return err
			}
			k := blockOf(p.ID, n)
			tagged := tagBlock(k, value)
			for l := k; l < n; l++ {
				out.Emit(strconv.Itoa(l), tagged)
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			l, err := strconv.Atoi(key)
			if err != nil {
				return fmt.Errorf("core: bad block key %q", key)
			}
			dc := ctx.Conf.GetFloat(confDc, 0)
			kern := kernels.Kernel{Dc2: dc * dc}
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			nLocal, err := points.DecodeHomeFirstInto(m, values, homeBlock(l), (*points.Matrix).AppendPoint)
			if err != nil {
				return err
			}
			n := m.N()
			// Diagonal pair (l, l) over local rows [0, nLocal), then cross
			// pairs visitors × local — the same evaluation order as the
			// scalar loops, so partials stay bit-identical.
			rho := kernels.Credit{Layouts: 1}
			rho.Reset(n)
			ctx.Counters.Add(mapreduce.CtrDistanceComputations, kernels.Rho(m, []kernels.Block{
				kernels.Triangle(0, nLocal), kernels.Cross(nLocal, n, 0, nLocal),
			}, kern, &rho))
			for i := 0; i < n; i++ {
				share := rho.Share(i, 0)
				if i >= nLocal && share == 0 {
					continue
				}
				out.Emit(mapreduce.IDKey(m.ID(i)), points.EncodeRhoValue(points.RhoValue{Rho: share}))
			}
			return nil
		},
	}
}

// basicRhoAggJob sums each point's ρ partials, one per block pair that
// holds it.
func basicRhoAggJob(conf mapreduce.Conf) *mapreduce.Job {
	sum := func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
		id, err := mapreduce.ParseIDKey(key)
		if err != nil {
			return err
		}
		var total float64
		for _, v := range values {
			rv, err := points.DecodeRhoValue(v, id)
			if err != nil {
				return err
			}
			total += rv.Rho
		}
		out.Emit(key, points.EncodeRhoValue(points.RhoValue{Rho: total}))
		return nil
	}
	return &mapreduce.Job{
		Name:    JobBasicAgg,
		Conf:    conf,
		Map:     identityMap,
		Combine: sum,
		Reduce:  sum,
	}
}

// identityMap forwards records unchanged; aggregation jobs group the
// previous job's (mapreduce.IDKey, value) output.
func identityMap(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
	out.Emit(key, value)
	return nil
}

// BasicDeltaJob is job 3: blocked exact δ partials. The map side is the ρ
// job's blocking over RhoPoint records. Reducer l evaluates, for every
// point it sees, the minimum distance to a denser point within the block
// pairs it owns; a point with no denser neighbour in scope emits a
// fallback record carrying the maximum distance seen (Upslope = −1), which
// the aggregation resolves exactly as Section III prescribes for the
// absolute density peak.
func BasicDeltaJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: JobBasicDel,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			n := ctx.Conf.GetInt(confBlocks, 1)
			rp, _, err := points.DecodeRhoPoint(value)
			if err != nil {
				return err
			}
			k := blockOf(rp.ID, n)
			tagged := tagBlock(k, value)
			for l := k; l < n; l++ {
				out.Emit(strconv.Itoa(l), tagged)
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			l, err := strconv.Atoi(key)
			if err != nil {
				return fmt.Errorf("core: bad block key %q", key)
			}
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			nLocal, err := points.DecodeHomeFirstInto(m, values, homeBlock(l), (*points.Matrix).AppendRhoPoint)
			if err != nil {
				return err
			}
			n := m.N()
			// The map-based state only emitted points that participated in
			// at least one pair. Visitors only ever pair against local rows,
			// so no local rows means no pairs at all, and a lone local point
			// without visitors pairs with nothing.
			if nLocal == 0 || n < 2 {
				return nil
			}
			acc := kernels.NewDeltaAcc(n, true)
			// Diagonal pair over local rows, then visitors × local — the
			// same evaluation order as the scalar loops.
			ctx.Counters.Add(mapreduce.CtrDistanceComputations, kernels.Delta(m, []kernels.Block{
				kernels.Triangle(0, nLocal), kernels.Cross(nLocal, n, 0, nLocal),
			}, acc))
			for i := 0; i < n; i++ {
				dv := points.DeltaValue{Delta: math.Sqrt(acc.Max2[i]), Upslope: -1}
				if acc.Up[i] >= 0 {
					dv.Delta = math.Sqrt(acc.Best2[i])
					dv.Upslope = m.ID(int(acc.Up[i]))
				}
				out.Emit(mapreduce.IDKey(m.ID(i)), points.EncodeDeltaValue(dv))
			}
			return nil
		},
	}
}

// DeltaAggJob folds δ partials per point: the minimum over real candidates
// (Upslope ≥ 0); when a point has only fallbacks — the absolute density
// peak — the maximum fallback distance, which equals max_j d_ij exactly
// because the point met every other point exactly once across reducers.
// Candidates at exactly the same distance go to the lowest upslope ID, so
// the fold is associative and commutative — it doubles as the combiner, and
// its result does not depend on the order the shuffle delivers partials in.
func DeltaAggJob(name string, conf mapreduce.Conf) *mapreduce.Job {
	fold := func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
		var (
			bestCand       = math.Inf(1)
			bestUp   int32 = -1
			maxFall  float64
			haveCand bool
		)
		for _, v := range values {
			dv, err := points.DecodeDeltaValue(v)
			if err != nil {
				return err
			}
			if dv.Upslope >= 0 {
				haveCand = true
				if dv.Delta < bestCand || (dv.Delta == bestCand && dv.Upslope < bestUp) {
					bestCand = dv.Delta
					bestUp = dv.Upslope
				}
			} else if dv.Delta > maxFall {
				maxFall = dv.Delta
			}
		}
		dv := points.DeltaValue{Upslope: -1, Delta: maxFall}
		if haveCand {
			dv.Delta = bestCand
			dv.Upslope = bestUp
		}
		out.Emit(key, points.EncodeDeltaValue(dv))
		return nil
	}
	return &mapreduce.Job{
		Name:    name,
		Conf:    conf,
		Map:     identityMap,
		Combine: fold,
		Reduce:  fold,
	}
}

// DecodeRhoArray turns aggregation output into a dense ρ array.
func DecodeRhoArray(out []mapreduce.Pair, n int) ([]float64, error) {
	rho, _, err := decodeRhoValues(out, n)
	return rho, err
}

// decodeRhoValues turns aggregation output into a dense ρ array and, for
// LSH-DDP, each point's neighbour list.
func decodeRhoValues(out []mapreduce.Pair, n int) ([]float64, [][]points.Neighbor, error) {
	rho := make([]float64, n)
	near := make([][]points.Neighbor, n)
	seen := make([]bool, n)
	for _, p := range out {
		id, err := pointOf(p.Key, n)
		if err != nil {
			return nil, nil, err
		}
		rv, err := points.DecodeRhoValue(p.Value, id)
		if err != nil {
			return nil, nil, err
		}
		if seen[id] {
			return nil, nil, fmt.Errorf("core: duplicate rho for id %d", id)
		}
		for _, e := range rv.Near {
			if e.ID < 0 || int(e.ID) >= n {
				return nil, nil, fmt.Errorf("core: id %d lists out-of-range neighbour %d", id, e.ID)
			}
		}
		seen[id] = true
		rho[id], near[id] = rv.Rho, rv.Near
	}
	for i, ok := range seen {
		if !ok {
			return nil, nil, fmt.Errorf("core: no rho produced for id %d", i)
		}
	}
	return rho, near, nil
}

// DecodeDeltaArrays turns δ records, one per point, into dense δ and
// upslope arrays.
func DecodeDeltaArrays(out []mapreduce.Pair, n int) ([]float64, []int32, error) {
	delta, upslope, open := make([]float64, n), make([]int32, n), make([]bool, n)
	for i := range open {
		open[i] = true
	}
	if err := decodeOpenDeltas(out, delta, upslope, open); err != nil {
		return nil, nil, err
	}
	return delta, upslope, nil
}

// decodeOpenDeltas fills delta and upslope from δ records: exactly one for
// each open point, and none for the others, whose δ̂ LSH-DDP's certify
// decided.
func decodeOpenDeltas(out []mapreduce.Pair, delta []float64, upslope []int32, open []bool) error {
	seen := make([]bool, len(open))
	for _, p := range out {
		id, err := pointOf(p.Key, len(open))
		if err != nil {
			return err
		}
		dv, err := points.DecodeDeltaValue(p.Value)
		if err != nil {
			return err
		}
		switch {
		case !open[id]:
			return fmt.Errorf("core: delta record for id %d, whose delta was certified", id)
		case seen[id]:
			return fmt.Errorf("core: duplicate delta for id %d", id)
		}
		seen[id] = true
		delta[id], upslope[id] = dv.Delta, dv.Upslope
	}
	for i := range open {
		if open[i] && !seen[i] {
			return fmt.Errorf("core: no delta produced for id %d", i)
		}
	}
	return nil
}

// pointOf returns the point ID an aggregation record's key carries, which
// must lie in [0, n).
func pointOf(key string, n int) (int32, error) {
	id, err := mapreduce.ParseIDKey(key)
	if err != nil {
		return 0, err
	}
	if id < 0 || int(id) >= n {
		return 0, fmt.Errorf("core: record for out-of-range id %d", id)
	}
	return id, nil
}
