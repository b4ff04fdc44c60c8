package baselines

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/points"
)

// Linkage selects the inter-cluster distance for agglomerative clustering.
type Linkage int

const (
	// SingleLink merges by minimum pairwise distance (chaining behaviour).
	SingleLink Linkage = iota
	// CompleteLink merges by maximum pairwise distance (compact clusters).
	CompleteLink
	// AverageLink merges by mean pairwise distance (UPGMA).
	AverageLink
)

// Hierarchical runs bottom-up agglomerative clustering until k clusters
// remain, using the Lance–Williams update so each merge is O(n), for an
// O(n²) total after the O(n²) distance matrix. Suitable for the small
// shaped sets of the Figure 8 comparison (n ≲ a few thousand).
func Hierarchical(ds *points.Dataset, k int, link Linkage) ([]int, error) {
	n := ds.N()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("baselines: k=%d out of range for %d points", k, n)
	}
	// dist[a][b] is the current inter-cluster distance; active tracks live
	// cluster representatives; size for average linkage.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := points.Dist(ds.Points[i].Pos, ds.Points[j].Pos)
			dist[i][j], dist[j][i] = d, d
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	parent := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
		parent[i] = i
	}
	// Priority queue of candidate merges; stale entries are skipped by
	// re-checking the current distance on pop.
	pq := &mergeQueue{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			heap.Push(pq, merge{d: dist[i][j], a: i, b: j})
		}
	}
	remaining := n
	for remaining > k && pq.Len() > 0 {
		m := heap.Pop(pq).(merge)
		if !active[m.a] || !active[m.b] || dist[m.a][m.b] != m.d {
			continue
		}
		// Merge b into a.
		active[m.b] = false
		parent[m.b] = m.a
		for c := 0; c < n; c++ {
			if !active[c] || c == m.a {
				continue
			}
			var nd float64
			switch link {
			case CompleteLink:
				nd = math.Max(dist[m.a][c], dist[m.b][c])
			case AverageLink:
				nd = (float64(size[m.a])*dist[m.a][c] + float64(size[m.b])*dist[m.b][c]) /
					float64(size[m.a]+size[m.b])
			default: // SingleLink
				nd = math.Min(dist[m.a][c], dist[m.b][c])
			}
			dist[m.a][c], dist[c][m.a] = nd, nd
			heap.Push(pq, merge{d: nd, a: min(m.a, c), b: max(m.a, c)})
		}
		size[m.a] += size[m.b]
		remaining--
	}
	// Path-compress to roots and densify labels.
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	labelOf := make(map[int]int)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := labelOf[r]
		if !ok {
			l = len(labelOf)
			labelOf[r] = l
		}
		labels[i] = l
	}
	return labels, nil
}

type merge struct {
	d    float64
	a, b int
}

type mergeQueue []merge

func (q mergeQueue) Len() int { return len(q) }
func (q mergeQueue) Less(i, j int) bool {
	if q[i].d != q[j].d {
		return q[i].d < q[j].d
	}
	if q[i].a != q[j].a {
		return q[i].a < q[j].a
	}
	return q[i].b < q[j].b
}
func (q mergeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *mergeQueue) Push(x interface{}) { *q = append(*q, x.(merge)) }
func (q *mergeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
