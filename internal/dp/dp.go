// Package dp implements the exact, sequential Density Peaks clustering
// algorithm of Rodriguez & Laio (Science, 2014), which every distributed
// algorithm in this repository approximates or parallelizes. It is the
// ground truth for the paper's accuracy metrics (τ₁, τ₂) and the quality
// comparison of Figure 8.
//
// For every point i the algorithm computes:
//
//	ρ_i — the local density: the number of points within the cutoff
//	      distance d_c, ρ_i = Σ_j 𝟙[d_ij < d_c] (the paper's Equation (1));
//	δ_i — the minimum distance to any point with higher density, and the
//	      identity of that "upslope" point;
//
// and, for the single densest point (the absolute density peak),
// δ = max_j d_ij with no upslope point.
//
// Density ties are broken by point ID: point j is considered denser than
// point i iff ρ_j > ρ_i, or ρ_j == ρ_i and j < i. ρ is an integer count, so ties are common; without a total order two tied points
// could both claim to be the absolute peak and results would be
// nondeterministic. Every algorithm in the repository (Basic-DDP, LSH-DDP,
// EDDPC) applies the same rule, so their exact variants agree bit-for-bit
// with this package.
package dp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/kernels"
	"repro/internal/points"
)

// Result holds the exact DP quantities, indexed by point ID.
type Result struct {
	Rho     []float64
	Delta   []float64
	Upslope []int32 // -1 for the absolute density peak
	// MaxDelta is the largest finite δ, used to place the absolute peak on
	// the decision graph.
	MaxDelta float64
}

// Denser reports whether point j dominates point i in the density total
// order used throughout the repository (ρ with ID tie-break).
func Denser(rho []float64, j, i int32) bool {
	if rho[j] != rho[i] {
		return rho[j] > rho[i]
	}
	return j < i
}

// DenserVals is Denser for already-extracted density values.
func DenserVals(rhoJ, rhoI float64, j, i int32) bool {
	if rhoJ != rhoI {
		return rhoJ > rhoI
	}
	return j < i
}

// Compute runs exact DP on ds with cutoff dc.
func Compute(ds *points.Dataset, dc float64) (*Result, error) {
	n := ds.N()
	if n == 0 {
		return &Result{}, nil
	}
	if !(dc > 0 && dc <= math.MaxFloat64) {
		return nil, fmt.Errorf("dp: d_c %v is not positive and finite", dc)
	}
	if ds.Dim() == 0 {
		return nil, fmt.Errorf("dp: %s: points have no coordinates", ds.Name)
	}
	res := &Result{
		Rho:     make([]float64, n),
		Delta:   make([]float64, n),
		Upslope: make([]int32, n),
	}
	rhoCutoff(ds, dc, res.Rho)
	computeDelta(ds, res)
	return res, nil
}

// rhoCutoff adds to rho each point's cutoff count: the other points
// strictly within dc, listed by one kernels.Within query per point on a box
// tree over the data set. points.SqDist is symmetric, so the counts are
// those of every unordered pair within dc, seen from both ends.
func rhoCutoff(ds *points.Dataset, dc float64, rho []float64) {
	dim := ds.Dim()
	data := make([]float64, 0, ds.N()*dim)
	for _, p := range ds.Points {
		data = append(data, p.Pos...)
	}
	var tree kernels.BoxTree
	tree.Build(data, dim)
	var near []int32
	for i := range ds.Points {
		near = kernels.Within(&tree, data, ds.Points[i].Pos, dc*dc, nil, near[:0])
		for _, j := range near {
			if j != int32(i) {
				rho[i]++
			}
		}
	}
}

// computeDelta fills Delta/Upslope/MaxDelta using the descending-ρ sweep
// (Section II-A's optimization (2)): after sorting points by the density
// total order, point i's upslope candidates are exactly the points ahead
// of it in the order.
func computeDelta(ds *points.Dataset, res *Result) {
	n := ds.N()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return Denser(res.Rho, order[a], order[b])
	})
	for oi := 1; oi < n; oi++ {
		i := order[oi]
		best2 := math.Inf(1)
		var bestJ int32 = -1
		for oj := 0; oj < oi; oj++ {
			j := order[oj]
			d2 := points.SqDist(ds.Points[i].Pos, ds.Points[j].Pos)
			if d2 < best2 {
				best2 = d2
				bestJ = j
			}
		}
		res.Delta[i] = math.Sqrt(best2)
		res.Upslope[i] = bestJ
		if res.Delta[i] > res.MaxDelta {
			res.MaxDelta = res.Delta[i]
		}
	}
	// Absolute density peak: δ = max distance to any other point.
	peak := order[0]
	var max2 float64
	for j := 0; j < n; j++ {
		if int32(j) == peak {
			continue
		}
		d2 := points.SqDist(ds.Points[peak].Pos, ds.Points[j].Pos)
		if d2 > max2 {
			max2 = d2
		}
	}
	res.Delta[peak] = math.Sqrt(max2)
	res.Upslope[peak] = -1
	if res.Delta[peak] > res.MaxDelta {
		res.MaxDelta = res.Delta[peak]
	}
	if n == 1 {
		res.Delta[peak] = 0
	}
}

// CutoffByPercentile chooses d_c as the q-quantile of the (sampled)
// pairwise distance distribution — the rule of thumb from the DP paper of
// placing the average neighbourhood at 1%–2% of N.
func CutoffByPercentile(ds *points.Dataset, q float64, seed int64) float64 {
	return points.PercentileDistance(ds, q, 200_000, seed)
}
