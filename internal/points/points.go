// Package points provides the fundamental data types shared by every other
// package in this repository: points with identities, vectors, Euclidean
// metrics, compact binary codecs used as MapReduce values, and a small
// dataset container.
//
// All algorithms in the repository (exact DP, Basic-DDP, LSH-DDP, EDDPC,
// K-means, the sequential baselines) operate on these types, so keeping them
// allocation-light matters: vectors are plain []float64, codecs write into
// reusable buffers, and distance functions avoid math.Sqrt where the squared
// distance suffices.
package points

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Vector is a point position in d-dimensional Euclidean space.
type Vector []float64

// Point is an input point: a stable integer identity plus its position.
// IDs are dense in [0, N) for a Dataset produced by this repository, which
// lets result sets (ρ, δ, upslope, label arrays) be indexed by ID directly.
type Point struct {
	ID  int32
	Pos Vector
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Add accumulates o into v in place. Panics if dimensions differ.
func (v Vector) Add(o Vector) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("points: dimension mismatch %d != %d", len(v), len(o)))
	}
	for i := range v {
		v[i] += o[i]
	}
}

// Scale multiplies v by s in place.
func (v Vector) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// String renders the vector with limited precision, for logs and tests.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	b.WriteByte(')')
	return b.String()
}

// SqDist returns the squared Euclidean distance between a and b.
// It is the inner loop of every algorithm here; keep it branch-free.
func SqDist(a, b Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Vector) float64 { return math.Sqrt(SqDist(a, b)) }

// Dataset is an in-memory point collection with optional ground-truth labels
// (label[i] is the true cluster of Points[i]; nil when unknown). Points are
// stored in ID order: Points[i].ID == int32(i).
type Dataset struct {
	Name   string
	Points []Point
	Labels []int // ground truth; nil if none
}

// N returns the number of points.
func (ds *Dataset) N() int { return len(ds.Points) }

// Dim returns the dimensionality (0 for an empty set).
func (ds *Dataset) Dim() int {
	if len(ds.Points) == 0 {
		return 0
	}
	return len(ds.Points[0].Pos)
}

// Validate checks the dense-ID invariant and uniform dimensionality.
func (ds *Dataset) Validate() error {
	d := ds.Dim()
	for i, p := range ds.Points {
		if p.ID != int32(i) {
			return fmt.Errorf("points: %s: point %d has ID %d, want dense IDs", ds.Name, i, p.ID)
		}
		if len(p.Pos) != d {
			return fmt.Errorf("points: %s: point %d has dim %d, want %d", ds.Name, i, len(p.Pos), d)
		}
	}
	if ds.Labels != nil && len(ds.Labels) != len(ds.Points) {
		return fmt.Errorf("points: %s: %d labels for %d points", ds.Name, len(ds.Labels), len(ds.Points))
	}
	return nil
}

// FromVectors builds a Dataset with dense IDs from raw vectors.
func FromVectors(name string, vs []Vector) *Dataset {
	ds := &Dataset{Name: name, Points: make([]Point, len(vs))}
	for i, v := range vs {
		ds.Points[i] = Point{ID: int32(i), Pos: v}
	}
	return ds
}

// PercentileDistance estimates the q-quantile (q in (0,1]) of the pairwise
// distance distribution by sampling up to maxPairs random pairs with the
// given deterministic seed. This is the d_c rule of thumb from the DP paper
// (1%–2% of the ascending ordered distance set); the sampled variant is what
// Basic-DDP's preprocessing MapReduce job computes.
func PercentileDistance(ds *Dataset, q float64, maxPairs int, seed int64) float64 {
	n := ds.N()
	if n < 2 {
		return 0
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("points: quantile %v out of (0,1]", q))
	}
	total := n * (n - 1) / 2
	dists := make([]float64, 0, min(total, maxPairs))
	if total <= maxPairs {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dists = append(dists, Dist(ds.Points[i].Pos, ds.Points[j].Pos))
			}
		}
	} else {
		rng := NewRand(seed)
		for len(dists) < maxPairs {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				continue
			}
			dists = append(dists, Dist(ds.Points[i].Pos, ds.Points[j].Pos))
		}
	}
	idx := int(q*float64(len(dists))) - 1
	if idx < 0 {
		idx = 0
	}
	return selectRank(dists, idx)
}

// selectRank returns a[k] as sort.Float64s(a) would leave it — NaNs first,
// then ascending, −Inf to +Inf — without sorting all of a, which it
// reorders: the NaNs are moved to the front, then a three-way quickselect
// narrows the rest to k's run of equal values. A range that stays large
// after 2·log₂ n rounds is sorted instead, so it is O(n log n) at worst.
func selectRank(a []float64, k int) float64 {
	nan := 0
	for i, v := range a {
		if v != v {
			a[i], a[nan] = a[nan], v
			nan++
		}
	}
	if k < nan {
		return a[k]
	}
	lo, hi := nan, len(a) // k lies in a[lo:hi]
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 1; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo:hi])
			break
		}
		// Median of three as the pivot, then a[lo:lt] < p, a[lt:gt] == p,
		// a[gt:hi] > p.
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		p := max(min(x, y), min(max(x, y), z))
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[i], a[lt] = a[lt], v
				lt++
				i++
			case v > p:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	return a[k]
}
