package eddpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/dp"
	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

const (
	tagHome    byte = 1
	tagVisitor byte = 0
	tagData    byte = 2
	tagQuery   byte = 3
)

func tagged(tag byte, payload []byte) []byte {
	return append([]byte{tag}, payload...)
}

func untag(v []byte) (byte, []byte, error) {
	if len(v) < 1 {
		return 0, nil, fmt.Errorf("eddpc: empty tagged value")
	}
	return v[0], v[1:], nil
}

// isHome splits a tagged record for points.DecodeHomeFirstInto: home when
// it carries tagHome.
func isHome(v []byte) (bool, []byte, error) {
	tag, payload, err := untag(v)
	return tag == tagHome, payload, err
}

// RhoJob computes exact ρ in a single job. Map assigns each point to its
// home Voronoi cell and replicates it into every cell whose bisector lower
// bound is within d_c; the reducer counts, for each home point, its
// d_c-neighbours among home points and visitors. Every d_c-neighbour of a
// home point is guaranteed present (the bound never exceeds the true
// point-to-cell distance), so no aggregation job is needed.
func RhoJob(conf mapreduce.Conf) *mapreduce.Job {
	assigner := mapreduce.ConfOnce(newAssigner) // the pivots, decoded once per job instance
	return &mapreduce.Job{
		Name: JobRho,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			a, err := assigner(ctx.Conf)
			if err != nil {
				return err
			}
			dc := ctx.Conf.GetFloat(confDc, 0)
			p, _, err := points.DecodePoint(value)
			if err != nil {
				return err
			}
			var nd int64
			asg := a.assign(p.Pos, &nd)
			ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
			out.Emit(strconv.Itoa(asg.home), tagged(tagHome, value))
			for c, b := range asg.bounds {
				if c != asg.home && b < dc {
					out.Emit(strconv.Itoa(c), tagged(tagVisitor, value))
				}
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
			dc := ctx.Conf.GetFloat(confDc, 0)
			kern := kernels.Kernel{Dc2: dc * dc}
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			nHome, err := points.DecodeHomeFirstInto(m, values, isHome, (*points.Matrix).AppendPoint)
			if err != nil {
				return err
			}
			n := m.N()
			// Home-home pairs, then home-visitor pairs. Both sides of every
			// pair are counted; only home rows are emitted (a visitor's own
			// cell owns its count), and cutoff counts are integer sums, so
			// splitting the interleaved scalar loop into two blocks is exact.
			rho := kernels.Credit{Layouts: 1}
			rho.Reset(n)
			ctx.Counters.Add(mapreduce.CtrDistanceComputations, kernels.Rho(m, []kernels.Block{
				kernels.Triangle(0, nHome), kernels.Cross(0, nHome, nHome, n),
			}, kern, &rho))
			for i := 0; i < nHome; i++ {
				out.Emit(mapreduce.IDKey(m.ID(i)), points.EncodeRhoValue(points.RhoValue{Rho: rho.Share(i, 0)}))
			}
			return nil
		},
	}
}

// DeltaLocalJob computes, inside each home cell, the upper bound
// δ_ub = min distance to a denser home point; a locally densest point gets
// δ_ub = +∞ (its refinement pass will visit every cell).
func DeltaLocalJob(conf mapreduce.Conf) *mapreduce.Job {
	assigner := mapreduce.ConfOnce(newAssigner) // the pivots, decoded once per job instance
	return &mapreduce.Job{
		Name: JobDeltaLoc,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			a, err := assigner(ctx.Conf)
			if err != nil {
				return err
			}
			rp, _, err := points.DecodeRhoPoint(value)
			if err != nil {
				return err
			}
			var nd int64
			asg := a.assign(rp.Pos, &nd)
			ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
			out.Emit(strconv.Itoa(asg.home), value)
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			if err := points.DecodeRhoPointsInto(m, values); err != nil {
				return err
			}
			acc := kernels.NewDeltaAcc(m.N(), false)
			ctx.Counters.Add(mapreduce.CtrDistanceComputations, kernels.DeltaArgmin(m, 0, m.N(), acc))
			for i := 0; i < m.N(); i++ {
				dv := points.DeltaValue{Delta: math.Inf(1), Upslope: -1}
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

// query record: RhoPoint | float64 ub | int32 ubUpslope.
func encodeQuery(rp points.RhoPoint, ub float64, ubUp int32) []byte {
	buf := points.AppendRhoPoint(nil, rp)
	buf = points.AppendFloat64(buf, ub)
	return binary.LittleEndian.AppendUint32(buf, uint32(ubUp))
}

func decodeQuery(v []byte) (points.RhoPoint, float64, int32, error) {
	rp, rest, err := points.DecodeRhoPoint(v)
	if err != nil {
		return points.RhoPoint{}, 0, 0, err
	}
	if len(rest) != 12 {
		return points.RhoPoint{}, 0, 0, fmt.Errorf("eddpc: query tail is %d bytes, want 12", len(rest))
	}
	ub := points.DecodeFloat64(rest)
	up := int32(binary.LittleEndian.Uint32(rest[8:]))
	return rp, ub, up, nil
}

// DeltaRefineJob finalizes δ. Map sends every point as "data" to its home
// cell, and as a "query" (carrying its δ_ub) to every OTHER cell whose
// bisector lower bound is at most δ_ub — the EDDPC-style filter that skips
// cells which provably cannot improve the bound; a cell at exactly δ_ub may
// hold a tie with a lower ID. The reducer answers each query with the denser
// home point that beats the query's local bound (δ_ub and its upslope) on
// (δ, then lower ID), comparing δ as core.DeltaAggJob does, if any.
func DeltaRefineJob(conf mapreduce.Conf) *mapreduce.Job {
	assigner := mapreduce.ConfOnce(newAssigner) // the pivots, decoded once per job instance
	return &mapreduce.Job{
		Name: JobDeltaRef,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			a, err := assigner(ctx.Conf)
			if err != nil {
				return err
			}
			rp, ub, _, err := decodeQuery(value)
			if err != nil {
				return err
			}
			var nd int64
			asg := a.assign(rp.Pos, &nd)
			ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
			out.Emit(strconv.Itoa(asg.home), tagged(tagData, points.EncodeRhoPoint(rp)))
			for c, b := range asg.bounds {
				if c != asg.home && b <= ub {
					out.Emit(strconv.Itoa(c), tagged(tagQuery, value))
				}
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
			// Home points land in one SoA matrix; queries keep their scalar
			// decode (they carry the δ_ub tail and are scanned once each).
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			type query struct {
				rp points.RhoPoint
				ub float64
				up int32
			}
			var queries []query
			for _, v := range values {
				tag, payload, err := untag(v)
				if err != nil {
					return err
				}
				switch tag {
				case tagData:
					rest, err := m.AppendRhoPoint(payload)
					if err != nil {
						return err
					}
					if len(rest) != 0 {
						return fmt.Errorf("eddpc: %d trailing bytes after data point", len(rest))
					}
				case tagQuery:
					rp, ub, up, err := decodeQuery(payload)
					if err != nil {
						return err
					}
					queries = append(queries, query{rp: rp, ub: ub, up: up})
				default:
					return fmt.Errorf("eddpc: unknown tag %d", tag)
				}
			}
			rhos, ids := m.Rhos(), m.IDs()
			var nd int64
			for _, q := range queries {
				best := points.DeltaValue{Delta: q.ub, Upslope: q.up}
				for di := 0; di < m.N(); di++ {
					if !dp.DenserVals(rhos[di], q.rp.Rho, ids[di], q.rp.ID) {
						continue
					}
					d := math.Sqrt(points.SqDist(q.rp.Pos, m.Row(di)))
					nd++
					if d < best.Delta || (d == best.Delta && ids[di] < best.Upslope) {
						best = points.DeltaValue{Delta: d, Upslope: ids[di]}
					}
				}
				if best.Upslope != q.up {
					out.Emit(mapreduce.IDKey(q.rp.ID), points.EncodeDeltaValue(best))
				}
			}
			ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
			return nil
		},
	}
}

// resolveAbsolutePeak fixes the single remaining +∞ δ — the global density
// peak, for which no denser point exists anywhere — by computing its exact
// max distance centrally. Returns the number of distances evaluated.
func resolveAbsolutePeak(ds *points.Dataset, rho, delta []float64, upslope []int32) (int64, error) {
	peak := -1
	for i, d := range delta {
		if math.IsInf(d, 1) {
			if peak != -1 {
				return 0, fmt.Errorf("eddpc: multiple unresolved peaks (%d and %d); refinement bug", peak, i)
			}
			peak = i
		}
	}
	if peak == -1 {
		return 0, nil // resolved by refinement min already? cannot happen, but harmless
	}
	for i := range rho {
		if i != peak && dp.Denser(rho, int32(i), int32(peak)) {
			return 0, fmt.Errorf("eddpc: unresolved point %d is not the global density peak", peak)
		}
	}
	var max2 float64
	var nd int64
	for j := range ds.Points {
		if j == peak {
			continue
		}
		d2 := points.SqDist(ds.Points[peak].Pos, ds.Points[j].Pos)
		nd++
		if d2 > max2 {
			max2 = d2
		}
	}
	delta[peak] = math.Sqrt(max2)
	upslope[peak] = -1
	return nd, nil
}
