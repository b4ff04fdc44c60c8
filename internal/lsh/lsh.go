// Package lsh implements p-stable locality-sensitive hashing for Euclidean
// distance (Datar et al., SoCG 2004), in the form LSH-DDP uses it: groups
// of π hash functions whose concatenated values form a partition key, and
// M independent groups ("layouts") that partition the data set M different
// ways.
//
// The package also carries the paper's probability machinery: the collision
// probability of a single function (Lemma 3), the probability that ALL
// d_c-neighbours of a point share its slot (Lemma 1, both the exact integral
// and the paper's closed-form lower bound), the layout-level accuracy of
// Theorems 1 and 2, and a solver that inverts the accuracy formula (Eq. 5)
// to find the minimal width w for a requested expected accuracy A.
package lsh

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/points"
)

// Func is one p-stable hash function h(p) = ⌊(a·p + b)/w⌋ with a drawn
// from a standard Gaussian (2-stable) distribution and b uniform in [0, w).
type Func struct {
	A points.Vector
	B float64
	W float64
}

// NewFunc draws a hash function for dim-dimensional points from rng.
func NewFunc(dim int, w float64, rng *points.Rand) Func {
	if w <= 0 {
		panic(fmt.Sprintf("lsh: non-positive width %v", w))
	}
	a := make(points.Vector, dim)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return Func{A: a, B: rng.Float64() * w, W: w}
}

// slot floors a projection to its slot index. Go leaves int64(v) up to the
// implementation when v is NaN, infinite or beyond the int64 range, so those
// are pinned here — NaN and everything at or below −2⁶³ to MinInt64,
// everything at or above 2⁶³ to MaxInt64 — and a hostile point gets the same
// key on every architecture and every rpcmr worker.
func slot(v float64) int64 {
	switch {
	case v != v, v <= -0x1p63:
		return math.MinInt64
	case v >= 0x1p63:
		return math.MaxInt64
	}
	i := int64(v)
	if v < 0 && float64(i) != v {
		i-- // truncation rounds toward zero; floor rounds down
	}
	return i
}

// Group is a group G of π hash functions; two points fall in the same
// partition of this group's layout iff all π hash values agree.
type Group struct {
	Funcs []Func
}

// NewGroup draws a group of pi functions.
func NewGroup(dim, pi int, w float64, rng *points.Rand) Group {
	if pi <= 0 {
		panic(fmt.Sprintf("lsh: non-positive group size %d", pi))
	}
	fs := make([]Func, pi)
	for i := range fs {
		fs[i] = NewFunc(dim, w, rng)
	}
	return Group{Funcs: fs}
}

// Layouts is the full LSH configuration of an LSH-DDP run: M groups of π
// functions of width w. The zero value is unusable; construct with
// NewLayouts. A Layouts is immutable and safe for concurrent use.
type Layouts struct {
	// Groups holds the drawn functions, layout by layout: the reference
	// form the flat arrays below are copied from.
	Groups []Group
	W      float64
	Pi     int

	// The M·π functions laid out flat in (layout, function) order for the
	// blocked projection pass: a is the M·π × dim row-major matrix of
	// direction vectors, b the offsets, norm each ‖a‖.
	dim  int
	a    []float64
	b    []float64
	norm []float64
}

// maxLayoutCoords bounds dim × M × π, the coordinates NewLayouts draws: far
// above any real run (1 024 dimensions under 64 layouts of 16 functions).
const maxLayoutCoords = 1 << 20

// CheckLayouts checks layout parameters read from a file (a model artifact,
// a fleet manifest) before NewLayouts allocates for them. The error names
// the parameter as a manifest spells it.
func CheckLayouts(dim, m, pi int, w float64) error {
	switch {
	case m < 1:
		return fmt.Errorf("lsh_m %d < 1", m)
	case pi < 1:
		return fmt.Errorf("lsh_pi %d < 1", pi)
	case math.IsNaN(w) || math.IsInf(w, 0):
		return fmt.Errorf("lsh_w %v is not finite", w)
	case w <= 0:
		return fmt.Errorf("lsh_w %v <= 0", w)
	case dim > maxLayoutCoords/m/pi:
		return fmt.Errorf("layouts of dim %d x lsh_m %d x lsh_pi %d exceed %d coordinates", dim, m, pi, maxLayoutCoords)
	}
	return nil
}

// NewLayouts draws M independent groups. Each group gets a sub-generator
// seeded from seed so layouts are independent yet reproducible.
func NewLayouts(dim, m, pi int, w float64, seed int64) *Layouts {
	if m <= 0 {
		panic(fmt.Sprintf("lsh: non-positive layout count %d", m))
	}
	groups := make([]Group, m)
	for i := range groups {
		rng := points.NewRand(seed + int64(i)*7919)
		groups[i] = NewGroup(dim, pi, w, rng)
	}
	return flatten(groups, dim, pi, w)
}

// flatten lays groups of pi dim-dimensional functions of width w out for
// the blocked projection pass.
func flatten(groups []Group, dim, pi int, w float64) *Layouts {
	l := &Layouts{Groups: groups, W: w, Pi: pi, dim: dim}
	for _, g := range groups {
		for _, f := range g.Funcs {
			l.a = append(l.a, f.A...)
			l.b = append(l.b, f.B)
			n2 := 0.0
			for _, a := range f.A {
				n2 += a * a
			}
			l.norm = append(l.norm, math.Sqrt(n2))
		}
	}
	return l
}

// M returns the number of layouts.
func (l *Layouts) M() int { return len(l.Groups) }

// Dim returns the point dimension the layouts hash; Hash panics on any
// other.
func (l *Layouts) Dim() int { return l.dim }

// dot4 returns the projections of p on four direction vectors, each summed
// the reference way: a[t]*p[t] added in ascending t.
func dot4(p, a0, a1, a2, a3 []float64) (s0, s1, s2, s3 float64) {
	for t, x := range p {
		s0 += a0[t] * x
		s1 += a1[t] * x
		s2 += a2[t] * x
		s3 += a3[t] * x
	}
	return
}

// project writes (a·p + b)/w for every function into out, four functions
// per step so four add chains are in flight at once (the shape of the
// kernels package's sqDist4). Each lane keeps the statement shape of the
// scalar reference ⌊(a·p + b)/w⌋ (Func.Hash in the package tests) — its own
// ascending sum, then the add, then the division — so every value, and so
// every slot, is bit-identical to the scalar form.
func (l *Layouts) project(p points.Vector, out []float64) {
	dim, a, b, w := l.dim, l.a, l.b, l.W
	f := 0
	for ; f+4 <= len(b); f += 4 {
		r := a[f*dim:]
		s0, s1, s2, s3 := dot4(p, r[:dim], r[dim:][:dim], r[2*dim:][:dim], r[3*dim:][:dim])
		out[f] = (s0 + b[f]) / w
		out[f+1] = (s1 + b[f+1]) / w
		out[f+2] = (s2 + b[f+2]) / w
		out[f+3] = (s3 + b[f+3]) / w
	}
	for ; f < len(b); f++ {
		row := a[f*dim:][:dim]
		var s float64
		for t, x := range p {
			s += row[t] * x
		}
		out[f] = (s + b[f]) / w
	}
}

// Hash computes p's projection under every function and its key under every
// layout into kb, replacing what kb held. It allocates nothing once kb has
// grown to this configuration's size.
func (l *Layouts) Hash(kb *KeyBuf, p points.Vector) {
	if len(p) != l.dim {
		panic(fmt.Sprintf("lsh: point dimension %d, layouts dimension %d", len(p), l.dim))
	}
	nl, pi, nf := len(l.Groups), l.Pi, len(l.b)
	if cap(kb.proj) < nf || cap(kb.ends) < nl {
		kb.proj = make([]float64, nf)
		kb.ends = make([]int, nl)
		// Room for the longest keys there are, so the loop below writes
		// varints in place instead of growing the buffer a byte at a time.
		kb.keys = make([]byte, nl*binary.MaxVarintLen32+nf*binary.MaxVarintLen64)
	}
	proj, ends := kb.proj[:nf], kb.ends[:nl]
	l.project(p, proj)
	keys, n := kb.keys[:cap(kb.keys)], 0
	for m := range ends {
		n += binary.PutUvarint(keys[n:], uint64(m)) // AppendKey's bytes
		for _, v := range proj[m*pi:][:pi] {
			n += binary.PutVarint(keys[n:], slot(v))
		}
		ends[m] = n
	}
	kb.proj, kb.ends, kb.keys = proj, ends, keys[:n]
}

// bufPool backs the convenience forms that take a bare point.
var bufPool = sync.Pool{New: func() any { return new(KeyBuf) }}

// EachKey calls emit with p's partition key under every layout, in layout
// order. The M keys share one backing string, so a map task pays one
// allocation per record however many layouts it replicates to.
func (l *Layouts) EachKey(p points.Vector, emit func(key string)) {
	kb := bufPool.Get().(*KeyBuf)
	l.Hash(kb, p)
	kb.EachKey(emit)
	bufPool.Put(kb)
}

// Keys returns p's partition key under every layout — the convenience form
// of Hash for callers off the hot paths.
func (l *Layouts) Keys(p points.Vector) []string {
	keys := make([]string, 0, len(l.Groups))
	l.EachKey(p, func(key string) { keys = append(keys, key) })
	return keys
}

// GuaranteeRadius returns, for the point last hashed into kb, a radius g
// and the layout that attains it: every point strictly within distance g of
// the hashed point shares its partition key in that layout — the soundness
// certificate of the kNN-join's bucketed candidate pass, and its routing
// rule (the query's bucket in that one layout holds every neighbor a
// certified answer can contain).
//
// For one hash function, moving a point by Euclidean distance d shifts its
// projection (a·x + b)/w by at most ‖a‖·d/w slot widths, so p keeps any
// neighbor within w·min(frac, 1−frac)/‖a‖, where frac ∈ [0, 1) is the
// fractional position of p's projection inside its slot. A layout keeps the
// neighbor when every one of its π functions does (the min over functions),
// and g is the largest such margin (the max over layouts; ties go to the
// lowest layout index, and layout 0 with g = 0 is returned when every
// margin is 0). A zero direction vector never splits and contributes an
// infinite margin. A projection that is NaN or ±Inf (a non-finite or
// overflowing point) sits in a saturated slot no neighbor's arithmetic is
// bound to reproduce, so its layout's margin is 0.
//
// The returned radius is deflated by one part in 2²⁰ to absorb the
// floating-point slop of the projection arithmetic, so callers comparing a
// verified k-th distance against it fail toward "re-verify exactly", never
// toward a wrong accept.
func (l *Layouts) GuaranteeRadius(kb *KeyBuf) (g float64, layout int) {
	best := 0.0
	for m := range l.Groups {
		margin := math.Inf(1)
		for f := m * l.Pi; f < (m+1)*l.Pi; f++ {
			v := kb.proj[f]
			frac := v - math.Floor(v)
			if frac != frac { // v is NaN or ±Inf
				margin = 0
				break
			}
			edge := frac
			if 1-frac < edge {
				edge = 1 - frac
			}
			if l.norm[f] == 0 {
				continue // constant projection: this function never splits
			}
			if r := edge * l.W / l.norm[f]; r < margin {
				margin = r
			}
		}
		if margin > best {
			best, layout = margin, m
		}
	}
	return best * (1 - 0x1p-20), layout
}
