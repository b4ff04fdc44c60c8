package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
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

func (c *BasicConfig) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return 500
}

// RunBasicDDP executes the exact Basic-DDP pipeline of Section III as one
// job DAG:
//
//	node 0  d_c sampling (unless cfg.Dc is set)
//	node 1  blocked all-pairs ρ partials
//	node 2  ρ aggregation (sum)
//	node 3  ρ̂-annotate transform (driver side)
//	node 4  blocked all-pairs δ partials (+ max-distance fallbacks)
//	node 5  δ aggregation (min; fallback max for the absolute peak)
//
// The blocking follows the paper exactly: the point set is split into n
// blocks; block k is shuffled only to reducers l ≥ k, so reducer l
// materializes every block pair (k, l), k ≤ l, exactly once — each point is
// shuffled (n−k) times, (n+1)/2 on average, and every unordered point pair
// is evaluated exactly once globally.
func RunBasicDDP(ctx context.Context, ds *points.Dataset, cfg BasicConfig) (*Result, error) {
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
	nBlocks := (ds.N() + cfg.blockSize() - 1) / cfg.blockSize()

	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, dc)
	conf.SetInt(confBlocks, nBlocks)
	setKernelConf(conf, cfg.Kernel)

	g := dag.NewGraph("basic-ddp")
	partials := g.Job(BasicRhoJob(conf).WithReduces(cfg.NumReduces), input)
	rhoOut := g.Job(RhoAggJob(JobBasicAgg, mapreduce.Conf{}).WithReduces(cfg.NumReduces), partials)
	// The transform closes over ds, which the fingerprint chain pins
	// transitively: rhoOut derives from the staged input, whose
	// fingerprint is the dataset content.
	rhoPts := g.Transform("basic-rho-points", func(in ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
		rho, err := DecodeRhoArray(in[0], ds.N())
		if err != nil {
			return nil, err
		}
		return RhoPointPairs(ds, rho), nil
	}, rhoOut)
	dPartials := g.Job(BasicDeltaJob(conf).WithReduces(cfg.NumReduces), rhoPts)
	dOut := g.Job(DeltaAggJob(JobBasicDAgg, mapreduce.Conf{}).WithReduces(cfg.NumReduces), dPartials)

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

func untagBlock(v []byte) (int, []byte, error) {
	if len(v) < 4 {
		return 0, nil, fmt.Errorf("core: short block tag")
	}
	return int(binary.LittleEndian.Uint32(v)), v[4:], nil
}

// idKey formats a point ID as a fixed-width reduce key so aggregation jobs
// group correctly and output deterministically.
func idKey(id int32) string { return fmt.Sprintf("%09d", id) }

func parseIDKey(k string) (int32, error) {
	v, err := strconv.Atoi(k)
	if err != nil {
		return 0, fmt.Errorf("core: bad id key %q: %w", k, err)
	}
	return int32(v), nil
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
			kern := kernelFromConf(ctx.Conf)
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			nLocal, err := decodeBlockGroup(m, values, l, (*points.Matrix).AppendPoint)
			if err != nil {
				return err
			}
			n := m.N()
			// Diagonal pair (l, l) over local rows [0, nLocal), then cross
			// pairs visitors × local — the same evaluation order as the
			// scalar loops, so partials stay bit-identical.
			rho := kernels.Credit{Layouts: 1}
			rho.Reset(n, kern)
			ctx.Counters.Add(mapreduce.CtrDistanceComputations, kernels.Rho(m, []kernels.Block{
				kernels.Triangle(0, nLocal), kernels.Cross(nLocal, n, 0, nLocal),
			}, kern, &rho))
			for i := 0; i < n; i++ {
				share := rho.Share(i, 0)
				if i >= nLocal && share == 0 {
					continue
				}
				id := m.ID(i)
				out.Emit(idKey(id), points.EncodeRhoValue(points.RhoValue{ID: id, Rho: share}))
			}
			return nil
		},
	}
}

// RhoAggJob sums ρ partials per point. Shared by Basic-DDP (sum of block
// partials) and reused with a different fold by LSH-DDP (see LSHRhoAggJob).
func RhoAggJob(name string, conf mapreduce.Conf) *mapreduce.Job {
	sum := func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
		var total float64
		var id int32
		for i, v := range values {
			rv, err := points.DecodeRhoValue(v)
			if err != nil {
				return err
			}
			if i == 0 {
				id = rv.ID
			}
			total += rv.Rho
		}
		out.Emit(key, points.EncodeRhoValue(points.RhoValue{ID: id, Rho: total}))
		return nil
	}
	return &mapreduce.Job{
		Name:    name,
		Conf:    conf,
		Map:     identityMap,
		Combine: sum,
		Reduce:  sum,
	}
}

// identityMap forwards records unchanged; aggregation jobs group the
// previous job's (idKey, value) output.
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
			nLocal, err := decodeBlockGroup(m, values, l, (*points.Matrix).AppendRhoPoint)
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
				id := m.ID(i)
				dv := points.DeltaValue{ID: id}
				if acc.Up[i] >= 0 {
					dv.Delta = math.Sqrt(acc.Best2[i])
					dv.Upslope = m.ID(int(acc.Up[i]))
				} else {
					dv.Delta = math.Sqrt(acc.Max2[i])
					dv.Upslope = -1
				}
				out.Emit(idKey(id), points.EncodeDeltaValue(dv))
			}
			return nil
		},
	}
}

// decodeBlockGroup batch-decodes one blocked reducer group into m with the
// home block l's rows first and visitors after, so the pairwise kernels see
// the diagonal range [0, nLocal) and the visitor range [nLocal, N()).
// appendRow is the per-record Matrix decoder (AppendPoint or AppendRhoPoint).
func decodeBlockGroup(m *points.Matrix, values [][]byte, l int,
	appendRow func(*points.Matrix, []byte) ([]byte, error)) (nLocal int, err error) {
	for pass := 0; pass < 2; pass++ {
		for _, v := range values {
			k, payload, err := untagBlock(v)
			if err != nil {
				return 0, err
			}
			if (k == l) != (pass == 0) {
				continue
			}
			rest, err := appendRow(m, payload)
			if err != nil {
				return 0, err
			}
			if len(rest) != 0 {
				return 0, fmt.Errorf("core: %d trailing bytes after block record", len(rest))
			}
		}
		if pass == 0 {
			nLocal = m.N()
		}
	}
	return nLocal, nil
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
			id       int32
			bestCand       = math.Inf(1)
			bestUp   int32 = -1
			maxFall  float64
			haveCand bool
		)
		for i, v := range values {
			dv, err := points.DecodeDeltaValue(v)
			if err != nil {
				return err
			}
			if i == 0 {
				id = dv.ID
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
		dv := points.DeltaValue{ID: id, Upslope: -1, Delta: maxFall}
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
		rv, err := points.DecodeRhoValue(p.Value)
		if err != nil {
			return nil, nil, err
		}
		if rv.ID < 0 || int(rv.ID) >= n {
			return nil, nil, fmt.Errorf("core: rho for out-of-range id %d", rv.ID)
		}
		if seen[rv.ID] {
			return nil, nil, fmt.Errorf("core: duplicate rho for id %d", rv.ID)
		}
		for _, e := range rv.Near {
			if e.ID < 0 || int(e.ID) >= n {
				return nil, nil, fmt.Errorf("core: id %d lists out-of-range neighbour %d", rv.ID, e.ID)
			}
		}
		seen[rv.ID] = true
		rho[rv.ID], near[rv.ID] = rv.Rho, rv.Near
	}
	for i, ok := range seen {
		if !ok {
			return nil, nil, fmt.Errorf("core: no rho produced for id %d", i)
		}
	}
	return rho, near, nil
}

// DecodeDeltaArrays turns aggregation output into dense δ and upslope
// arrays.
func DecodeDeltaArrays(out []mapreduce.Pair, n int) ([]float64, []int32, error) {
	delta := make([]float64, n)
	upslope := make([]int32, n)
	seen := make([]bool, n)
	for _, p := range out {
		dv, err := points.DecodeDeltaValue(p.Value)
		if err != nil {
			return nil, nil, err
		}
		if dv.ID < 0 || int(dv.ID) >= n {
			return nil, nil, fmt.Errorf("core: delta for out-of-range id %d", dv.ID)
		}
		if seen[dv.ID] {
			return nil, nil, fmt.Errorf("core: duplicate delta for id %d", dv.ID)
		}
		seen[dv.ID] = true
		delta[dv.ID] = dv.Delta
		upslope[dv.ID] = dv.Upslope
	}
	for i, ok := range seen {
		if !ok {
			return nil, nil, fmt.Errorf("core: no delta produced for id %d", i)
		}
	}
	return delta, upslope, nil
}
