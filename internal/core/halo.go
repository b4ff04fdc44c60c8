package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/points"
)

// Distributed halo detection — an extension beyond the reproduced paper.
// The original DP paper (Rodriguez & Laio) separates each cluster into a
// core and a halo: the border density ρ_b of a cluster is the highest
// average density over cross-cluster point pairs within d_c, and points
// below their cluster's ρ_b are halo (likely noise). Computing ρ_b needs
// cross-cluster d_c-pairs — the same local structure LSH-DDP's partitions
// preserve — so it distributes with the identical two-job pattern: local
// border maxima per LSH partition, then a max aggregation per cluster.
// Like ρ̂, each local estimate can only miss pairs, so the aggregated ρ̂_b
// is an underestimate whose quality improves with M (Theorem 1's logic).

// Job names for the rpcmr registry.
const (
	JobLSHHalo    = "lsh-ddp-halo"
	JobLSHHaloAgg = "lsh-ddp-halo-agg"
)

// HaloResult carries per-point halo flags and the per-cluster border
// densities that produced them.
type HaloResult struct {
	// Halo[i] is true when point i's density is below its cluster's
	// border density.
	Halo []bool
	// Border[c] is the estimated border density ρ̂_b of cluster c.
	Border []float64
	// Stats covers the two halo jobs.
	Stats Stats
}

// labeled point record: RhoPoint | int32 label.
func encodeLabeled(rp points.RhoPoint, label int32) []byte {
	buf := points.AppendRhoPoint(nil, rp)
	return binary.LittleEndian.AppendUint32(buf, uint32(label))
}

func decodeLabeled(v []byte) (points.RhoPoint, int32, error) {
	rp, rest, err := points.DecodeRhoPoint(v)
	if err != nil {
		return points.RhoPoint{}, 0, err
	}
	if len(rest) != 4 {
		return points.RhoPoint{}, 0, fmt.Errorf("core: labeled point tail is %d bytes, want 4", len(rest))
	}
	return rp, int32(binary.LittleEndian.Uint32(rest)), nil
}

// border record keyed by cluster: float64 border density.
func clusterKey(c int32) string { return fmt.Sprintf("c%06d", c) }

// LSHHaloJob computes, per LSH partition, each cluster's local border
// density: the max of (ρ_i+ρ_j)/2 over cross-cluster pairs within d_c. The
// aggregated maximum depends only on the set of distinct co-bucketed pairs,
// so a partition leaves out the pairs an earlier layout's partition holds
// too (paironce.go).
func LSHHaloJob(conf mapreduce.Conf) *mapreduce.Job {
	drawn := mapreduce.ConfOnce(layoutsOf)
	return &mapreduce.Job{
		Name: JobLSHHalo,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			rp, _, err := decodeLabeled(value)
			if err != nil {
				return err
			}
			l, err := drawn(ctx.Conf)
			if err != nil {
				return err
			}
			l.EachKey(rp.Pos, func(key string) { out.Emit(key, value) })
			return nil
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
			dc := ctx.Conf.GetFloat(confDc, 0)
			dc2 := dc * dc
			// Batch-decode the partition into one SoA matrix (labels in a
			// parallel column) so the pairwise scan walks flat storage
			// instead of per-record heap Vectors.
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			labels := make([]int32, 0, len(values))
			for _, v := range values {
				rest, err := m.AppendRhoPoint(v)
				if err != nil {
					return err
				}
				if len(rest) != 4 {
					return fmt.Errorf("core: labeled point tail is %d bytes, want 4", len(rest))
				}
				labels = append(labels, int32(binary.LittleEndian.Uint32(rest)))
			}
			po := pairOncePool.Get().(*pairOnce)
			defer pairOncePool.Put(po)
			rows := po.order[:0]
			for r := 0; r < m.N(); r++ {
				rows = append(rows, int32(r))
			}
			po.order = rows
			po.sign(l, m, own, own, rows)
			border := map[int32]float64{}
			var nd, skipped int64
			for i := 0; i < m.N(); i++ {
				ri := m.Row(i)
				for j := i + 1; j < m.N(); j++ {
					if labels[i] == labels[j] {
						continue
					}
					if po.sharesEarlier(i, j, own) {
						skipped++
						continue
					}
					nd++
					if points.SqDist(ri, m.Row(j)) >= dc2 {
						continue
					}
					avg := (m.Rho(i) + m.Rho(j)) / 2
					if avg > border[labels[i]] {
						border[labels[i]] = avg
					}
					if avg > border[labels[j]] {
						border[labels[j]] = avg
					}
				}
			}
			countPairs(ctx, nd, 0, skipped)
			clusters := make([]int32, 0, len(border))
			for c := range border {
				clusters = append(clusters, c)
			}
			slices.Sort(clusters)
			for _, c := range clusters {
				out.Emit(clusterKey(c), points.EncodeFloat64(border[c]))
			}
			return nil
		},
	}
}

// LSHHaloAggJob folds per-partition border maxima into the final border
// density per cluster. Max is associative, so the fold doubles as the
// combiner.
func LSHHaloAggJob(conf mapreduce.Conf) *mapreduce.Job {
	fold := func(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
		var maxB float64
		for _, v := range values {
			if b := points.DecodeFloat64(v); b > maxB {
				maxB = b
			}
		}
		out.Emit(key, points.EncodeFloat64(maxB))
		return nil
	}
	return &mapreduce.Job{
		Name:    JobLSHHaloAgg,
		Conf:    conf,
		Map:     identityMap,
		Combine: fold,
		Reduce:  fold,
	}
}

// RunLSHHalo estimates the core/halo split for an existing clustering:
// rho are the (approximate) densities, labels the cluster assignment from
// Result.Cluster, dc the cutoff used to produce them. LSH parameters
// follow cfg exactly as in RunLSHDDP (width solved from cfg.Accuracy when
// cfg.W is 0).
func RunLSHHalo(ctx context.Context, ds *points.Dataset, rho []float64, labels []int32, dc float64, cfg LSHConfig) (*HaloResult, error) {
	start := time.Now()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if len(rho) != ds.N() || len(labels) != ds.N() {
		return nil, fmt.Errorf("core: halo needs %d rho and labels, have %d and %d",
			ds.N(), len(rho), len(labels))
	}
	if dc <= 0 {
		return nil, fmt.Errorf("core: halo needs a positive d_c")
	}
	nClusters := int32(0)
	for i, l := range labels {
		if l < 0 {
			return nil, fmt.Errorf("core: point %d has negative label", i)
		}
		if l+1 > nClusters {
			nClusters = l + 1
		}
	}
	conf, w, err := cfg.jobConf(dc, ds.Dim())
	if err != nil {
		return nil, err
	}
	input := make([]mapreduce.Pair, ds.N())
	for i, p := range ds.Points {
		input[i] = mapreduce.Pair{Value: encodeLabeled(points.RhoPoint{Point: p, Rho: rho[i]}, labels[i])}
	}
	sess := cfg.DagSession()
	mark := sess.Mark()
	partials, err := sess.Run(ctx, LSHHaloJob(conf), sess.Stage(input))
	if err != nil {
		return nil, err
	}
	agg, err := sess.Run(ctx, LSHHaloAggJob(mapreduce.Conf{}), partials)
	if err != nil {
		return nil, err
	}

	res := &HaloResult{
		Halo:   make([]bool, ds.N()),
		Border: make([]float64, nClusters),
	}
	for _, p := range agg {
		var c int32
		if _, err := fmt.Sscanf(p.Key, "c%d", &c); err != nil {
			return nil, fmt.Errorf("core: bad cluster key %q", p.Key)
		}
		if c < 0 || c >= nClusters {
			return nil, fmt.Errorf("core: cluster key %d out of range", c)
		}
		res.Border[c] = points.DecodeFloat64(p.Value)
	}
	for i := range res.Halo {
		res.Halo[i] = rho[i] < res.Border[labels[i]]
	}
	res.Stats.Dc = dc
	res.Stats.W = w
	res.Stats.Pi = cfg.pi()
	res.Stats.M = cfg.m()
	CollectStats(&res.Stats, sess, mark, start)
	return res, nil
}

// HaloJobFactories returns the registry entries for the halo jobs.
func HaloJobFactories() map[string]func(mapreduce.Conf) *mapreduce.Job {
	return map[string]func(mapreduce.Conf) *mapreduce.Job{
		JobLSHHalo:    LSHHaloJob,
		JobLSHHaloAgg: LSHHaloAggJob,
	}
}
