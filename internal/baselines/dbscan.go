package baselines

import (
	"fmt"

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
// use a uniform grid index with cell side eps, so the expected cost is
// near-linear on low-dimensional data; the worst case remains O(n²).
func DBSCAN(ds *points.Dataset, eps float64, minPts int) (*DBSCANResult, error) {
	n := ds.N()
	if eps <= 0 {
		return nil, fmt.Errorf("baselines: non-positive eps %v", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("baselines: minPts %d < 1", minPts)
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
// excluded, in a fixed order: the candidates are the points in the cells
// around i of a points.Grid of side eps, or every point above
// points.MaxGridDim, where the 3^dim cell fan-out outweighs the pruning.
func neighborQuery(ds *points.Dataset, eps float64) func(i int32) []int32 {
	var grid *points.Grid
	var all []int32
	if ds.Dim() <= points.MaxGridDim {
		grid = points.NewGrid(ds, eps)
	} else {
		all = make([]int32, ds.N())
		for i := range all {
			all[i] = int32(i)
		}
	}
	eps2 := eps * eps
	return func(i int32) []int32 {
		p := ds.Points[i].Pos
		var out []int32
		visit := func(ids []int32) {
			for _, j := range ids {
				if j != i && points.SqDist(p, ds.Points[j].Pos) <= eps2 {
					out = append(out, j)
				}
			}
		}
		if grid != nil {
			grid.ForEachNeighborCell(p, visit)
		} else {
			visit(all)
		}
		return out
	}
}
