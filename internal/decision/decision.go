// Package decision implements the centralized final step shared by every
// distributed DP algorithm in this repository (Section III, Step 3 of the
// paper): building the (ρ, δ) decision graph, selecting density peaks on
// it, and assigning every remaining point to a cluster by following its
// chain of upslope points.
//
// The paper argues for keeping this step interactive — the decision graph
// is DP's distinguishing user affordance — so the package provides both
// explicit selection (a (ρ_min, δ_min) box, exactly what a user draws on
// the graph) and automatic strategies (top-k by γ = ρ·δ, and a γ-outlier
// rule) for non-interactive pipelines, plus an ASCII rendering of the graph
// for terminal exploration.
package decision

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dp"
	"repro/internal/points"
)

// Graph is a decision graph: per-point density and delta-distance, plus the
// upslope pointers that drive assignment. Every δ is finite: NewGraph
// rectifies the +Inf a distributed algorithm gives a local absolute peak.
type Graph struct {
	Rho     []float64
	Delta   []float64
	Upslope []int32
}

// NewGraph bundles result arrays into a Graph after validating lengths. The
// graph's δ is a copy of delta with every non-finite value replaced by the
// maximum finite one, or 1 when none is finite (Section IV-C: "the infinite
// δ will be rectified as the finite max δ value before drawing them on the
// decision graph"); rho and upslope are shared.
func NewGraph(rho, delta []float64, upslope []int32) (*Graph, error) {
	if len(rho) != len(delta) || len(rho) != len(upslope) {
		return nil, fmt.Errorf("decision: mismatched lengths rho=%d delta=%d upslope=%d",
			len(rho), len(delta), len(upslope))
	}
	finite := func(d float64) bool { return !math.IsInf(d, 0) && !math.IsNaN(d) }
	maxFinite := math.Inf(-1)
	for _, d := range delta {
		if finite(d) && d > maxFinite {
			maxFinite = d
		}
	}
	if math.IsInf(maxFinite, -1) {
		maxFinite = 1
	}
	rect := make([]float64, len(delta))
	for i, d := range delta {
		rect[i] = maxFinite
		if finite(d) {
			rect[i] = d
		}
	}
	return &Graph{Rho: rho, Delta: rect, Upslope: upslope}, nil
}

// N returns the number of points.
func (g *Graph) N() int { return len(g.Rho) }

// Gamma returns γ_i = ρ_i · δ_i, the peak-ness score.
func (g *Graph) Gamma() []float64 {
	gamma := make([]float64, g.N())
	for i := range gamma {
		gamma[i] = g.Rho[i] * g.Delta[i]
	}
	return gamma
}

// SelectBox returns the IDs of all points with ρ > rhoMin and δ > deltaMin —
// the rectangular selection a user draws on the decision graph (as in the
// paper's Figure 7, "all points that satisfy ρ > 14 and δ > 40").
func (g *Graph) SelectBox(rhoMin, deltaMin float64) []int32 {
	var peaks []int32
	for i := range g.Rho {
		if g.Rho[i] > rhoMin && g.Delta[i] > deltaMin {
			peaks = append(peaks, int32(i))
		}
	}
	return peaks
}

// SelectTopK returns the k points with the largest γ = ρ·δ, ties broken by
// smaller ID.
func (g *Graph) SelectTopK(k int) []int32 {
	if k <= 0 {
		return nil
	}
	gamma := g.Gamma()
	ids := make([]int32, g.N())
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		ga, gb := gamma[ids[a]], gamma[ids[b]]
		if ga != gb {
			return ga > gb
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	peaks := append([]int32(nil), ids[:k]...)
	sort.Slice(peaks, func(a, b int) bool { return peaks[a] < peaks[b] })
	return peaks
}

// Assign labels every point with the index (into peaks) of its cluster by
// walking points in decreasing density order and inheriting the upslope
// point's label (Figure 1d's assignment chain). Points whose chain dead-
// ends without reaching a selected peak — the absolute density peak when it
// was not selected, or unselected local peaks produced by approximate
// algorithms — fall back to the nearest selected peak by distance, which
// requires ds. Returns nil and an error when peaks is empty.
func (g *Graph) Assign(ds *points.Dataset, peaks []int32) ([]int32, error) {
	if len(peaks) == 0 {
		return nil, fmt.Errorf("decision: no peaks selected")
	}
	n := g.N()
	if ds.N() != n {
		return nil, fmt.Errorf("decision: dataset has %d points, graph has %d", ds.N(), n)
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	for c, p := range peaks {
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("decision: peak id %d out of range", p)
		}
		labels[p] = int32(c)
	}
	// Process points in decreasing density order so that every point's
	// upslope point is labeled before the point itself.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return dp.Denser(g.Rho, order[a], order[b])
	})
	nearestPeak := func(i int32) int32 {
		best := math.Inf(1)
		var bestC int32
		for c, p := range peaks {
			d := points.SqDist(ds.Points[i].Pos, ds.Points[p].Pos)
			if d < best {
				best = d
				bestC = int32(c)
			}
		}
		return bestC
	}
	for _, i := range order {
		if labels[i] >= 0 {
			continue
		}
		u := g.Upslope[i]
		if u < 0 || int(u) >= n || labels[u] < 0 {
			labels[i] = nearestPeak(i)
			continue
		}
		labels[i] = labels[u]
	}
	return labels, nil
}

// SuggestK proposes a cluster count from the γ spectrum: sort γ
// descending and find the largest relative gap γ_i/γ_{i+1} within the
// first maxK candidates (peaks stand clear of the crowd on the decision
// graph, so the spectrum has a knee at the true k). Returns 1 for a
// gapless spectrum. This automates what a user does visually; the paper
// deliberately keeps selection interactive, so treat this as a default,
// not an oracle.
func (g *Graph) SuggestK(maxK int) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	if maxK <= 0 || maxK > n-1 {
		maxK = n - 1
	}
	gamma := g.Gamma()
	sort.Sort(sort.Reverse(sort.Float64Slice(gamma)))
	bestK, bestRatio := 1, 0.0
	for k := 1; k <= maxK && k < n; k++ {
		hi, lo := gamma[k-1], gamma[k]
		if lo <= 0 {
			if hi > 0 {
				return k // everything after k is zero: unambiguous knee
			}
			continue
		}
		if ratio := hi / lo; ratio > bestRatio {
			bestRatio = ratio
			bestK = k
		}
	}
	return bestK
}
