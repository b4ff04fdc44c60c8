package baselines

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/kernels"
	"repro/internal/points"
)

// DBSCANResult labels points with cluster ids; noise points get -1.
type DBSCANResult struct {
	Labels   []int
	Clusters int
	Noise    int
}

// DBSCAN runs the classic density-based clustering (Ester et al.) with
// radius eps and core threshold minPts (a point is core when it has at
// least minPts neighbours within eps, itself excluded). Neighbour queries
// are radius queries on a box tree (neighborQuery), so the cost is
// near-linear where the tree prunes; the worst case remains O(n²).
func DBSCAN(ds *points.Dataset, eps float64, minPts int) (*DBSCANResult, error) {
	n := ds.N()
	if !(eps > 0 && eps*eps <= math.MaxFloat64) {
		return nil, fmt.Errorf("baselines: eps %v is not positive with a finite square", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("baselines: minPts %d < 1", minPts)
	}
	if n > 0 && ds.Dim() == 0 {
		return nil, fmt.Errorf("baselines: %s: points have no coordinates", ds.Name)
	}
	neighbors := neighborQuery(ds, eps)
	labels := make([]int, n)
	const (
		unvisited = -2
		noise     = -1
	)
	for i := range labels {
		labels[i] = unvisited
	}
	cluster := 0
	var queue []int32
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		neigh := neighbors(int32(i))
		if len(neigh) < minPts {
			labels[i] = noise
			continue
		}
		labels[i] = cluster
		queue = append(queue[:0], neigh...)
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[j] == noise {
				labels[j] = cluster // border point
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = cluster
			jn := neighbors(j)
			if len(jn) >= minPts {
				queue = append(queue, jn...)
			}
		}
		cluster++
	}
	res := &DBSCANResult{Labels: labels, Clusters: cluster}
	for _, l := range labels {
		if l == noise {
			res.Noise++
		}
	}
	return res, nil
}

// neighborQuery returns a query for the ids within eps of point i, i
// excluded: the closed eps-ball, as kernels.Within's open ball of radius²
// the next float above eps² — exact, since eps² is finite. Each cluster is
// expanded whole before the next seed, so the labels do not depend on the
// order the ids come in.
func neighborQuery(ds *points.Dataset, eps float64) func(i int32) []int32 {
	dim := ds.Dim()
	data := make([]float64, 0, ds.N()*dim)
	for _, p := range ds.Points {
		data = append(data, p.Pos...)
	}
	var tree kernels.BoxTree
	tree.Build(data, max(dim, 1)) // ds.Dim() is 0 on an empty set
	r2 := math.Nextafter(eps*eps, math.Inf(1))
	return func(i int32) []int32 {
		out := kernels.Within(&tree, data, ds.Points[i].Pos, r2, nil, nil)
		return slices.DeleteFunc(out, func(j int32) bool { return j == i })
	}
}
