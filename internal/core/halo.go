package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
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

// labeled point record: RhoPoint | int32 label | ship mask, the mask's
// bytes as planRho's record carries them (none: every layout).
func encodeLabeled(rp points.RhoPoint, label int32, mask []byte) []byte {
	buf := points.AppendRhoPoint(nil, rp)
	return append(binary.LittleEndian.AppendUint32(buf, uint32(label)), mask...)
}

// LSHHaloJob computes, per LSH partition, each cluster's local border
// density: the max of (ρ_i+ρ_j)/2 over cross-cluster pairs within d_c. The
// aggregated maximum depends only on the set of distinct co-bucketed pairs,
// so a reducer walks the pairs it owns, as the ρ job's do (paironce.go), and
// takes the ρ job's ship plan and runs-apart pruning: a pruned pair lies at
// d_c or beyond and raises no border. A same-cluster pair is skipped before
// its distance is computed.
func LSHHaloJob(conf mapreduce.Conf) *mapreduce.Job {
	drawn := mapreduce.ConfOnce(layoutsOf)
	return &mapreduce.Job{
		Name: JobLSHHalo,
		Conf: conf,
		Map:  plannedMap(drawn, 8+4), // ρ and label
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
			po := pairOncePool.Get().(*pairOnce)
			defer pairOncePool.Put(po)
			var arrived []int32 // labels in arrival order
			m, err := po.load(l, own, own, values, func(m *points.Matrix, values [][]byte) error {
				m.Reset()
				for _, v := range values {
					rest, err := m.AppendRhoPoint(v)
					if err != nil {
						return err
					}
					if len(rest) != 4 {
						return fmt.Errorf("core: labeled point tail is %d bytes, want 4", len(rest))
					}
					arrived = append(arrived, int32(binary.LittleEndian.Uint32(rest)))
				}
				return nil
			})
			if err != nil {
				return err
			}
			defer points.PutMatrix(m)
			labels := make([]int32, m.N())
			for i, r := range po.order {
				labels[i] = arrived[r]
			}
			blocks, pruned, skipped := po.owned(m, own, dc2)
			border := map[int32]float64{}
			var nd int64
			for _, b := range blocks {
				for i := b.ALo; i < b.AHi; i++ {
					for j := max(b.BLo, i+1); j < b.BHi; j++ {
						if labels[i] == labels[j] {
							skipped++
							continue
						}
						nd++
						if points.SqDist(m.Row(i), m.Row(j)) >= dc2 {
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
			}
			countPairs(ctx, nd, pruned, skipped)
			clusters := make([]int32, 0, len(border))
			for c := range border {
				clusters = append(clusters, c)
			}
			slices.Sort(clusters)
			for _, c := range clusters {
				out.Emit(mapreduce.IDKey(c), points.EncodeFloat64(border[c]))
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
			b, err := decodeBorder(v)
			if err != nil {
				return err
			}
			if b > maxB {
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

// RunLSHHalo estimates the core/halo split for an existing clustering of
// ds: res carries ds's (approximate) densities and the cutoff d_c that
// produced them, labels the cluster assignment from Result.Cluster. LSH
// parameters follow cfg exactly as in RunLSHDDP (width solved from
// cfg.Accuracy when cfg.W is 0). A res that RunLSHDDP returned for ds
// under the same parameters lends the halo job its ρ ship plan; one
// without a plan, or made under other parameters, is planned anew.
func RunLSHHalo(ctx context.Context, ds *points.Dataset, res *Result, labels []int32, cfg LSHConfig) (*HaloResult, error) {
	start := time.Now()
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	rho, dc := res.Rho, res.Stats.Dc
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
	plan := res.plan
	if plan == nil || !maps.Equal(plan.conf, conf) || len(plan.masks) != ds.N()*((cfg.M+7)/8) {
		layouts, err := layoutsOf(conf)
		if err != nil {
			return nil, err
		}
		if _, plan, err = planRho(InputPairs(ds), layouts, conf); err != nil {
			return nil, err
		}
	}
	input := plan.input(ds.N(), func(i int, mask []byte) []byte {
		return encodeLabeled(points.RhoPoint{Point: ds.Points[i], Rho: rho[i]}, labels[i], mask)
	})
	sess := cfg.DagSession()
	mark := sess.Mark()
	partials, err := sess.Run(ctx, LSHHaloJob(conf), sess.Stage(input))
	if err != nil {
		return nil, err
	}
	if partials, err = mapreduce.SortByIDKey(partials); err != nil {
		return nil, err
	}
	agg, err := sess.Run(ctx, LSHHaloAggJob(mapreduce.Conf{}), partials)
	if err != nil {
		return nil, err
	}

	border, err := decodeBorders(agg, int(nClusters))
	if err != nil {
		return nil, err
	}
	hr := &HaloResult{Halo: make([]bool, ds.N()), Border: border}
	for i := range hr.Halo {
		hr.Halo[i] = rho[i] < hr.Border[labels[i]]
	}
	hr.Stats.Dc = dc
	hr.Stats.W = w
	hr.Stats.Pi = cfg.Pi
	hr.Stats.M = cfg.M
	CollectStats(&hr.Stats, sess, mark, start)
	return hr, nil
}

// decodeBorder reads one border density record, exactly 8 bytes.
func decodeBorder(v []byte) (float64, error) {
	if len(v) != 8 {
		return 0, fmt.Errorf("core: border density record is %d bytes, want 8", len(v))
	}
	return points.DecodeFloat64(v), nil
}

// decodeBorders reads the halo aggregation's records into the border
// density of each of n clusters: at most one record per cluster, and a
// cluster without one keeps 0.
func decodeBorders(agg []mapreduce.Pair, n int) ([]float64, error) {
	border, seen := make([]float64, n), make([]bool, n)
	for _, p := range agg {
		c, err := pointOf(p.Key, n)
		if err != nil {
			return nil, err
		}
		if seen[c] {
			return nil, fmt.Errorf("core: duplicate border density for cluster %d", c)
		}
		seen[c] = true
		if border[c], err = decodeBorder(p.Value); err != nil {
			return nil, err
		}
	}
	return border, nil
}

// HaloJobFactories returns the registry entries for the halo jobs.
func HaloJobFactories() map[string]func(mapreduce.Conf) *mapreduce.Job {
	return map[string]func(mapreduce.Conf) *mapreduce.Job{
		JobLSHHalo:    LSHHaloJob,
		JobLSHHaloAgg: LSHHaloAggJob,
	}
}
