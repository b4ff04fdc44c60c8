// Package eddpc implements an exact Voronoi-partitioned distributed
// Density Peaks algorithm in the style of EDDPC (Gong & Zhang, the
// "state-of-the-art" comparator of the paper's Table IV). The reproduced
// paper treats EDDPC as a closed-source competitor; this package is our
// own implementation of its algorithmic idea so the Table IV comparison
// runs against a real exact baseline:
//
//   - the space is partitioned by a set of pivots (Voronoi cells);
//   - ρ is computed exactly in ONE job by replicating every point into
//     each cell whose bisector-plane lower bound lies within d_c — the
//     "replication/filtering" that lets EDDPC avoid Basic-DDP's all-pairs
//     shuffle;
//   - δ is computed exactly in two jobs: a local pass inside the home cell
//     produces an upper bound δ_ub per point, then each point is sent only
//     to the cells whose lower bound is below its δ_ub, pruning almost all
//     distance work for points whose upslope neighbour is nearby.
//
// Unlike LSH-DDP the results are exact (they match internal/dp
// bit-for-bit); the price is pivot-distance computations and replication
// shuffle, which is the trade-off Table IV reports.
package eddpc

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

// Config tunes the EDDPC run.
type Config struct {
	core.Config
	// Pivots is the number of Voronoi cells; <=0 chooses max(8, N/500),
	// matching Basic-DDP's default block granularity.
	Pivots int
}

func (c *Config) pivots(n int) int {
	if c.Pivots > 0 {
		return c.Pivots
	}
	p := n / 500
	if p < 8 {
		p = 8
	}
	if p > n {
		p = n
	}
	return p
}

// Job names for the rpcmr registry.
const (
	JobRho      = "eddpc-rho"
	JobDeltaLoc = "eddpc-delta-local"
	JobDeltaRef = "eddpc-delta-refine"
	JobDeltaAgg = "eddpc-delta-agg"
)

const (
	confDc     = "eddpc.dc"
	confPivots = "eddpc.pivots"
)

// Run executes the EDDPC pipeline as one job DAG and returns exact DP
// results. The δ-local and refinement branches feed the final aggregation
// as two inputs of one node (concatenated in declaration order), exactly
// like the hand-sequenced pipeline appended their outputs.
func Run(ctx context.Context, ds *points.Dataset, cfg Config) (*core.Result, error) {
	start := time.Now()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.N() < 2 {
		return nil, fmt.Errorf("eddpc: need at least 2 points, have %d", ds.N())
	}
	sess := cfg.DagSession()
	mark := sess.Mark()
	input := sess.Stage("points", core.InputPairs(ds))

	dc, err := core.ChooseDc(ctx, sess, ds, &cfg.Config, input)
	if err != nil {
		return nil, err
	}

	pivots := samplePivots(ds, cfg.pivots(ds.N()), cfg.Seed)
	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, dc)
	conf[confPivots] = encodePivots(pivots)

	g := dag.NewGraph("eddpc")
	// Node 1: exact ρ via boundary replication. No aggregation needed:
	// each point's home cell sees every d_c-neighbour.
	rhoOut := g.Job(RhoJob(conf).WithReduces(cfg.NumReduces), input)
	rhoPts := g.Transform("eddpc-rho-points", func(in ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
		rho, err := core.DecodeRhoArray(in[0], ds.N())
		if err != nil {
			return nil, err
		}
		return core.RhoPointPairs(ds, rho), nil
	}, rhoOut)
	// Node 2: local δ upper bounds inside home cells.
	locOut := g.Job(DeltaLocalJob(conf).WithReduces(cfg.NumReduces), rhoPts)
	// Node 3: refinement — each point visits only cells that could hold a
	// closer denser point, bounded by its local δ_ub.
	refQueries := g.Transform("eddpc-refine-queries", func(in ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
		rho, err := core.DecodeRhoArray(in[0], ds.N())
		if err != nil {
			return nil, err
		}
		ub, ubUp, err := core.DecodeDeltaArrays(in[1], ds.N())
		if err != nil {
			return nil, err
		}
		refIn := make([]mapreduce.Pair, ds.N())
		for i, p := range ds.Points {
			refIn[i] = mapreduce.Pair{Value: encodeQuery(points.RhoPoint{Point: p, Rho: rho[i]}, ub[i], ubUp[i])}
		}
		return refIn, nil
	}, rhoOut, locOut)
	refOut := g.Job(DeltaRefineJob(conf).WithReduces(cfg.NumReduces), refQueries)
	// Node 4: aggregate local bounds and refinement candidates.
	aggOut := g.Job(core.DeltaAggJob(JobDeltaAgg, mapreduce.Conf{}).WithReduces(cfg.NumReduces), locOut, refOut)

	outs, err := sess.Run(ctx, g, rhoOut, aggOut)
	if err != nil {
		return nil, err
	}
	rho, err := core.DecodeRhoArray(outs[0], ds.N())
	if err != nil {
		return nil, err
	}
	delta, upslope, err := core.DecodeDeltaArrays(outs[1], ds.N())
	if err != nil {
		return nil, err
	}

	// The absolute density peak has no denser point anywhere; its exact
	// δ = max_j d_ij is resolved centrally (O(N) distances, counted below).
	peakDists, err := resolveAbsolutePeak(ds, rho, delta, upslope)
	if err != nil {
		return nil, err
	}

	res := &core.Result{Rho: rho, Delta: delta, Upslope: upslope}
	res.Stats.Dc = dc
	core.CollectStats(&res.Stats, sess, mark, start)
	res.Stats.DistanceComputations += peakDists
	return res, nil
}

// samplePivots draws p distinct points as Voronoi pivots.
func samplePivots(ds *points.Dataset, p int, seed int64) []points.Vector {
	rng := points.NewRand(seed + 1000003)
	perm := rng.Perm(ds.N())
	pivots := make([]points.Vector, p)
	for i := 0; i < p; i++ {
		pivots[i] = ds.Points[perm[i]].Pos
	}
	return pivots
}

// encodePivots serializes pivots for Conf transport (base64 over the
// binary point codec) so distributed workers receive identical cells.
func encodePivots(pv []points.Vector) string {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pv)))
	for i, v := range pv {
		buf = points.AppendPoint(buf, points.Point{ID: int32(i), Pos: v})
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func decodePivots(s string) ([]points.Vector, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("eddpc: bad pivot encoding: %w", err)
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("eddpc: short pivot blob")
	}
	n := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	pv := make([]points.Vector, n)
	for i := 0; i < n; i++ {
		p, rest, err := points.DecodePoint(raw)
		if err != nil {
			return nil, err
		}
		pv[i] = p.Pos
		raw = rest
	}
	return pv, nil
}

// cellAssignment computes, for one point, its home cell, the distances to
// all pivots, and the bisector lower bound to every other cell:
//
//	bound(p, j) = (d(p, pv_j)² − d(p, pv_home)²) / (2 · d(pv_home, pv_j))
//
// which lower-bounds the distance from p to any point of cell j.
type cellAssignment struct {
	home   int
	bounds []float64 // lower bound to each cell; 0 for home
}

// assigner caches pivot geometry (pairwise pivot distances) per task.
type assigner struct {
	pivots []points.Vector
	pdist  [][]float64
}

func newAssigner(conf mapreduce.Conf) (*assigner, error) {
	pv, err := decodePivots(conf[confPivots])
	if err != nil {
		return nil, err
	}
	a := &assigner{pivots: pv, pdist: make([][]float64, len(pv))}
	for i := range pv {
		a.pdist[i] = make([]float64, len(pv))
	}
	for i := range pv {
		for j := i + 1; j < len(pv); j++ {
			d := points.Dist(pv[i], pv[j])
			a.pdist[i][j], a.pdist[j][i] = d, d
		}
	}
	return a, nil
}

// assign computes the assignment for pos, adding len(pivots) to the
// distance counter.
func (a *assigner) assign(pos points.Vector, nd *int64) cellAssignment {
	k := len(a.pivots)
	d2 := make([]float64, k)
	home := 0
	for c := 0; c < k; c++ {
		d2[c] = points.SqDist(pos, a.pivots[c])
		if d2[c] < d2[home] {
			home = c
		}
	}
	*nd += int64(k)
	bounds := make([]float64, k)
	for c := 0; c < k; c++ {
		if c == home {
			continue
		}
		sep := a.pdist[home][c]
		if sep == 0 {
			bounds[c] = 0
			continue
		}
		b := (d2[c] - d2[home]) / (2 * sep)
		if b < 0 {
			b = 0
		}
		bounds[c] = b
	}
	return cellAssignment{home: home, bounds: bounds}
}
