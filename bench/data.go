package main

import (
	"repro/internal/core"
	"repro/internal/lsh"
	"repro/internal/model"
	"repro/internal/points"
)

// Serving geometry, shared by the three serving workloads: the same blobs
// batch-lshddp clusters, at a row count whose float64 block (12.8 MB) is
// more than 3x the box's total L2, so the candidate scan stays memory-bound,
// but small enough that same-code segments agree within a few percent.
const (
	serveRows     = 200000
	serveDim      = 8
	serveClusters = 16
	serveBox      = 100
	serveSpread   = 2.5

	// The paper's LSH defaults (A=0.99, M=10, π=3), as RunLSHDDP uses them.
	lshM        = 10
	lshPi       = 3
	lshAccuracy = 0.99
)

// The benchmark's --seed generates the inputs: which points are drawn
// around the cluster centres, how R and S are split, which queries are sent.
// Two things are pinned instead, because they define the workload rather
// than an input to it:
//
//   - geometrySeed places the cluster centres. Centres redrawn per seed move
//     LSH bucket occupancy, and with it every cost the benchmark reports, by
//     5-12 % from one seed to the next (measured: rows_per_answer 23.9k-26.8k
//     over seeds 1-5) - a difference between workloads, not between runs.
//   - programSeed is the seed the program itself draws its LSH layouts from
//     (core.Config.Seed, knnjoin.Config.Seed, the model's layout seed). It is
//     configuration of the system under test; the program receives the
//     generated inputs and nothing else of the benchmark's seed.
const (
	geometrySeed = 20170419
	programSeed  = 1
)

// blobs draws n points from k isotropic Gaussian clusters, like
// dataset.Blobs, but with the centres placed by geometrySeed and only the
// points drawn from seed. Labels record the generating cluster.
func blobs(name string, n, dim, k int, box, spread float64, seed int64) *points.Dataset {
	geo := points.NewRand(geometrySeed)
	centers := make([]points.Vector, k)
	for c := range centers {
		centers[c] = make(points.Vector, dim)
		for j := range centers[c] {
			centers[c][j] = geo.Float64() * box
		}
	}
	rng := points.NewRand(seed)
	ds := &points.Dataset{Name: name, Points: make([]points.Point, n), Labels: make([]int, n)}
	for i := range ds.Points {
		c := rng.Intn(k)
		v := make(points.Vector, dim)
		for j := range v {
			v[j] = centers[c][j] + rng.NormFloat64()*spread
		}
		ds.Points[i] = points.Point{ID: int32(i), Pos: v}
		ds.Labels[i] = c
	}
	return ds
}

// buildServeModel assembles a serving model directly from the blob geometry
// (as cmd/serveload does at >= 100k points): farthest-point peaks over a
// sample, nearest-peak labels, densities decaying with peak distance, and
// the same d_c estimator and LSH width solver the training pipeline uses.
// The serving path sees a valid model with the stated row count, geometry
// and layouts without the benchmark paying for a 200k-point training run in
// every set-up.
func buildServeModel(n int, seed int64) (*model.Model, *points.Dataset, float64, error) {
	ds := blobs("bench-serve", n, serveDim, serveClusters, serveBox, serveSpread, seed)
	dc := points.PercentileDistance(ds, 0.02, 100000, programSeed)
	rng := points.NewRand(programSeed + 7)
	sample := rng.Perm(n)[:min(n, 64*serveClusters)]
	peaks := []int32{int32(sample[0])}
	peakDist2 := func(i int) float64 {
		best := points.SqDist(ds.Points[i].Pos, ds.Points[peaks[0]].Pos)
		for _, p := range peaks[1:] {
			best = min(best, points.SqDist(ds.Points[i].Pos, ds.Points[p].Pos))
		}
		return best
	}
	for len(peaks) < serveClusters {
		bestIdx, bestD := sample[0], -1.0
		for _, i := range sample {
			if d := peakDist2(i); d > bestD {
				bestIdx, bestD = i, d
			}
		}
		peaks = append(peaks, int32(bestIdx))
	}
	labels := make([]int32, n)
	rho := make([]float64, n)
	for i := range labels {
		best, bestD2 := 0, points.SqDist(ds.Points[i].Pos, ds.Points[peaks[0]].Pos)
		for c := 1; c < len(peaks); c++ {
			if d2 := points.SqDist(ds.Points[i].Pos, ds.Points[peaks[c]].Pos); d2 < bestD2 {
				best, bestD2 = c, d2
			}
		}
		labels[i] = int32(best)
		rho[i] = 1 / (1 + bestD2/(dc*dc))
	}
	w, err := lsh.SolveWidth(lshAccuracy, dc, lshPi, lshM)
	if err != nil {
		return nil, nil, 0, err
	}
	res := &core.Result{Rho: rho}
	res.Stats.Dc = dc
	res.Stats.M, res.Stats.Pi, res.Stats.W = lshM, lshPi, w
	mdl, err := core.ExportModel(ds, res, peaks, labels, nil, programSeed)
	if err != nil {
		return nil, nil, 0, err
	}
	return mdl, ds, dc, nil
}

// queryStream derives count queries from the stored points: a seeded shuffle
// of the rows, each jittered by a d_c/2-scale Gaussian, so candidate sets
// look like nearby live traffic rather than replays and the mix mirrors the
// data instead of walking it cluster by cluster.
func queryStream(ds *points.Dataset, dc float64, count int, seed int64) [][]float64 {
	rng := points.NewRand(seed + 99)
	perm := rng.Perm(ds.N())
	queries := make([][]float64, count)
	for i := range queries {
		p := ds.Points[perm[i%len(perm)]].Pos
		q := make([]float64, len(p))
		for j, x := range p {
			q[j] = x + rng.NormFloat64()*dc/2
		}
		queries[i] = q
	}
	return queries
}
