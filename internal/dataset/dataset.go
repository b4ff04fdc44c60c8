// Package dataset generates the evaluation data sets. The paper's Table II
// uses seven real-world sets; those files are not redistributable, so this
// package provides deterministic synthetic generators that reproduce each
// set's cardinality (scaled where noted in DESIGN.md), dimensionality, and
// — what actually matters to DP and LSH behaviour — its cluster structure:
// shaped 2-D sets for Aggregation and S2, Gaussian mixtures embedded in
// high dimension for Facial/KDD/BigCross, and a road-network-like manifold
// for 3Dspatial.
//
// Every generator takes an explicit seed and is bit-reproducible.
package dataset

import (
	"fmt"
	"sort"

	"repro/internal/points"
)

// Blobs generates n points from k isotropic Gaussian clusters with the
// given per-dimension spread, centers drawn uniformly in [0, box]^dim.
// Labels record the generating cluster.
func Blobs(name string, n, dim, k int, box, spread float64, seed int64) *points.Dataset {
	if k <= 0 || n <= 0 || dim <= 0 {
		panic(fmt.Sprintf("dataset: bad blob spec n=%d dim=%d k=%d", n, dim, k))
	}
	rng := points.NewRand(seed)
	centers := make([]points.Vector, k)
	for c := range centers {
		v := make(points.Vector, dim)
		for j := range v {
			v[j] = rng.Float64() * box
		}
		centers[c] = v
	}
	return mixture(name, n, centers, uniformWeights(k), spread, rng)
}

// mixture draws n points from weighted Gaussian components.
func mixture(name string, n int, centers []points.Vector, weights []float64, spread float64, rng *points.Rand) *points.Dataset {
	dim := len(centers[0])
	cum := cumulative(weights)
	ds := &points.Dataset{
		Name:   name,
		Points: make([]points.Point, n),
		Labels: make([]int, n),
	}
	for i := 0; i < n; i++ {
		c := pickComponent(cum, rng.Float64())
		v := make(points.Vector, dim)
		for j := range v {
			v[j] = centers[c][j] + rng.NormFloat64()*spread
		}
		ds.Points[i] = points.Point{ID: int32(i), Pos: v}
		ds.Labels[i] = c
	}
	return ds
}

func uniformWeights(k int) []float64 {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	return w
}

func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	var s float64
	for i, x := range w {
		s += x
		cum[i] = s
	}
	for i := range cum {
		cum[i] /= s
	}
	return cum
}

func pickComponent(cum []float64, u float64) int {
	i := sort.SearchFloat64s(cum, u)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

// Aggregation reproduces the structure of the Aggregation benchmark set
// (Gionis et al.): 788 2-D points in 7 clusters of very different sizes,
// two pairs of which nearly touch — the shape that defeats hierarchical
// clustering and DBSCAN in the paper's Figure 8.
func Aggregation(seed int64) *points.Dataset {
	// Component layout modeled on the original set's geometry
	// (coordinates roughly in [0,36]×[0,30]).
	type comp struct {
		cx, cy, sx, sy float64
		n              int
	}
	comps := []comp{
		{9, 23, 2.2, 1.8, 170},  // big top-left
		{21, 23, 1.6, 1.5, 102}, // top-middle, nearly touching next
		{25.5, 21, 1.3, 1.3, 68},
		{30, 8, 2.4, 2.0, 180}, // big bottom-right
		{19, 8, 1.5, 1.5, 104},
		{14.5, 5.5, 1.1, 1.1, 45}, // small, close to previous
		{7, 9, 1.7, 1.7, 119},
	}
	rng := points.NewRand(seed)
	var total int
	for _, c := range comps {
		total += c.n
	}
	ds := &points.Dataset{
		Name:   "Aggregation",
		Points: make([]points.Point, 0, total),
		Labels: make([]int, 0, total),
	}
	for ci, c := range comps {
		for i := 0; i < c.n; i++ {
			x := c.cx + rng.NormFloat64()*c.sx
			y := c.cy + rng.NormFloat64()*c.sy
			ds.Points = append(ds.Points, points.Point{
				ID:  int32(len(ds.Points)),
				Pos: points.Vector{x, y},
			})
			ds.Labels = append(ds.Labels, ci)
		}
	}
	return ds
}

// S2 reproduces the structure of the S-sets' S2 (Fränti & Virmajoki):
// 5000 2-D points in 15 Gaussian clusters with moderate overlap.
func S2(seed int64) *points.Dataset {
	rng := points.NewRand(seed)
	centers := make([]points.Vector, 15)
	// Spread centers over a jittered grid so clusters are distinct but not
	// uniformly spaced, like the original S2.
	i := 0
	for gy := 0; gy < 4 && i < 15; gy++ {
		for gx := 0; gx < 4 && i < 15; gx++ {
			centers[i] = points.Vector{
				float64(gx)*230_000 + 120_000 + rng.Float64()*90_000,
				float64(gy)*230_000 + 120_000 + rng.Float64()*90_000,
			}
			i++
		}
	}
	return mixture("S2", 5000, centers, uniformWeights(15), 32_000, rng)
}

// clustersFor scales the number of mixture components with N so that the
// typical cluster (and hence the typical LSH partition) stays a few
// hundred points regardless of data set size. Real feature data sets have
// this property — local density structure refines as N grows — and it is
// what makes LSH-DDP's distance work grow linearly in N (Figure 10(c))
// rather than quadratically.
func clustersFor(n int) int {
	k := n / 400
	if k < 16 {
		k = 16
	}
	return k
}

// Facial reproduces the shape of the Facial (skeletal face features) set:
// high-dimensional (300-d) points in clusters that live near a lower-
// dimensional subspace, as real descriptor data does: cluster centers vary
// strongly in the first 12 dimensions and weakly elsewhere.
func Facial(n int, seed int64) *points.Dataset {
	return embedded("Facial", n, 300, 12, clustersFor(n), seed)
}

// KDD reproduces the shape of the KDD Cup (protein homology) set: 74-d
// feature vectors with fine-grained density structure.
func KDD(n int, seed int64) *points.Dataset {
	return embedded("KDD", n, 74, 10, clustersFor(n), seed)
}

// BigCross reproduces the shape of the BigCross set (the cross product of
// the Tower and Covertype sets used by StreamKM++): 57-d with many
// grid-like clusters from the cross-product construction.
func BigCross(n int, seed int64) *points.Dataset {
	return embedded("BigCross", n, 57, 8, clustersFor(n), seed)
}

// embedded generates k Gaussian clusters whose centers differ strongly in
// an "active" leading subspace and only slightly in the remaining
// dimensions — the covariance profile of real high-dimensional feature
// data, and the regime in which p-stable LSH partitions meaningfully.
//
// Cluster sizes follow a Zipf-like law (weight ∝ 1/(rank+2)), which real
// feature data exhibits and which matters for reproducing the paper's cost
// shapes: the few large clusters dominate the pairwise-distance mass, so
// the 2% d_c rule lands at an INTRA-cluster distance (with equal-size
// clusters and k > 50, within-cluster pairs fall below 2% of all pairs and
// d_c jumps to the cross-cluster scale, which destroys every locality
// method — LSH-DDP and EDDPC alike). Cluster separation is wide relative
// to d_c so LSH layouts resolve clusters and slice the large ones.
func embedded(name string, n, dim, active, k int, seed int64) *points.Dataset {
	rng := points.NewRand(seed)
	centers := make([]points.Vector, k)
	for c := range centers {
		v := make(points.Vector, dim)
		for j := range v {
			if j < active {
				v[j] = rng.Float64() * 400
			} else {
				v[j] = rng.Float64() * 4
			}
		}
		centers[c] = v
	}
	// Zipf-like cluster weights, as in real data (see above).
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 1.0 / float64(i+2)
	}
	cum := cumulative(weights)
	ds := &points.Dataset{
		Name:   name,
		Points: make([]points.Point, n),
		Labels: make([]int, n),
	}
	for i := 0; i < n; i++ {
		c := pickComponent(cum, rng.Float64())
		v := make(points.Vector, dim)
		for j := range v {
			spread := 3.0
			if j >= active {
				spread = 1.0
			}
			v[j] = centers[c][j] + rng.NormFloat64()*spread
		}
		ds.Points[i] = points.Point{ID: int32(i), Pos: v}
		ds.Labels[i] = c
	}
	return ds
}

// Spatial3D reproduces the shape of the 3D Road Network set: 4-d records
// (id-like attribute folded into coordinates in the original; here four
// spatial features) sampled along a network of random polylines — data
// concentrated on a 1-D manifold, the regime where density varies smoothly
// and DP's assignment chains get long.
func Spatial3D(n int, seed int64) *points.Dataset {
	rng := points.NewRand(seed)
	// Road count scales with n so the network's local density structure
	// refines as the data grows, as real road networks do.
	roads := n / 400
	if roads < 40 {
		roads = 40
	}
	type segment struct{ a, b points.Vector }
	var segs []segment
	for r := 0; r < roads; r++ {
		// Random-walk polyline with 5 segments.
		// Road origins spread over a metropolitan-scale extent so the
		// network has wide-area structure; each road stays local.
		cur := points.Vector{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 2, rng.Float64()}
		for s := 0; s < 5; s++ {
			nxt := cur.Clone()
			nxt[0] += rng.NormFloat64() * 12
			nxt[1] += rng.NormFloat64() * 12
			nxt[2] += rng.NormFloat64() * 0.3
			nxt[3] += rng.NormFloat64() * 0.1
			segs = append(segs, segment{a: cur, b: nxt})
			cur = nxt
		}
	}
	ds := &points.Dataset{
		Name:   "3Dspatial",
		Points: make([]points.Point, n),
	}
	for i := 0; i < n; i++ {
		sg := segs[rng.Intn(len(segs))]
		t := rng.Float64()
		v := make(points.Vector, 4)
		for j := range v {
			v[j] = sg.a[j] + t*(sg.b[j]-sg.a[j]) + rng.NormFloat64()*0.2
		}
		ds.Points[i] = points.Point{ID: int32(i), Pos: v}
	}
	return ds
}
