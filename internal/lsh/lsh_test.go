package lsh

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/points"
)

// Hash returns the slot index of p. It is the reference form of the slot
// arithmetic: Layouts.Hash evaluates the same expression four functions at
// a time and must agree with it bit for bit.
func (f Func) Hash(p points.Vector) int64 {
	return slot((dot(f.A, p) + f.B) / f.W)
}

// dot returns the inner product of a and p, summed a[t]*p[t] in ascending t.
func dot(a, p []float64) float64 {
	var s float64
	for t, x := range p {
		s += a[t] * x
	}
	return s
}

func TestHashFloorSemantics(t *testing.T) {
	f := Func{A: points.Vector{1}, B: 0, W: 1}
	cases := []struct {
		x    float64
		want int64
	}{
		{0, 0}, {0.5, 0}, {0.999, 0}, {1, 1}, {-0.1, -1}, {-1, -1}, {-1.5, -2}, {7.2, 7},
	}
	for _, c := range cases {
		if got := f.Hash(points.Vector{c.x}); got != c.want {
			t.Fatalf("Hash(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestHashShiftByWChangesSlotByOne(t *testing.T) {
	rng := points.NewRand(1)
	f := NewFunc(3, 4.0, rng)
	p := points.Vector{1, 2, 3}
	// Moving along A by exactly W/|A|^2 * A shifts the projection by W.
	norm2 := dot(f.A, f.A)
	q := p.Clone()
	for i := range q {
		q[i] += f.W / norm2 * f.A[i]
	}
	if got, want := f.Hash(q), f.Hash(p)+1; got != want {
		t.Fatalf("shifted hash = %d, want %d", got, want)
	}
}

func TestGroupKeyFormat(t *testing.T) {
	l := NewLayouts(2, 2, 3, 5.0, 2)
	p := points.Vector{1, 2}
	keys := l.Keys(p)
	for m, key := range keys {
		layout, slots, err := DecodeKey(key)
		if err != nil || layout != m || len(slots) != 3 {
			t.Fatalf("key %x decodes to layout %d, slots %v, err %v; want layout %d and 3 slots", key, layout, slots, err, m)
		}
		for i, f := range l.Groups[m].Funcs {
			if slots[i] != f.Hash(p) {
				t.Fatalf("key %x slot %d = %d, Func.Hash = %d", key, i, slots[i], f.Hash(p))
			}
		}
	}
	// Same point, same key; moved point usually different.
	if again := l.Keys(points.Vector{1, 2}); again[0] != keys[0] || again[1] != keys[1] {
		t.Fatal("key not deterministic")
	}
}

func TestLayoutsDeterministicBySeed(t *testing.T) {
	a := NewLayouts(4, 5, 3, 2.0, 99)
	b := NewLayouts(4, 5, 3, 2.0, 99)
	p := points.Vector{0.5, -1, 2, 7}
	ka, kb := a.Keys(p), b.Keys(p)
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("layout %d key differs: %q vs %q", i, ka[i], kb[i])
		}
	}
	c := NewLayouts(4, 5, 3, 2.0, 100)
	diff := 0
	for i, k := range c.Keys(p) {
		if k != ka[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seed produced identical layouts")
	}
}

func TestLayoutKeysAreNamespaced(t *testing.T) {
	l := NewLayouts(2, 3, 1, 1e9, 7)
	keys := l.Keys(points.Vector{1, 2})
	seen := map[string]bool{}
	for m, k := range keys {
		if layout, _, err := DecodeKey(k); err != nil || layout != m {
			t.Fatalf("key %x not namespaced by layout %d (got %d, %v)", k, m, layout, err)
		}
		if seen[k] {
			t.Fatalf("layouts %d collide on key %q", m, k)
		}
		seen[k] = true
	}
}

// Property: closer points never have a lower single-function collision
// rate than farther ones, measured over many function draws.
func TestCollisionMonotoneEmpirical(t *testing.T) {
	const draws = 4000
	w := 4.0
	collide := func(d float64) float64 {
		rng := points.NewRand(11)
		p := points.Vector{0, 0}
		q := points.Vector{d, 0}
		hits := 0
		for i := 0; i < draws; i++ {
			f := NewFunc(2, w, rng)
			if f.Hash(p) == f.Hash(q) {
				hits++
			}
		}
		return float64(hits) / draws
	}
	near, mid, far := collide(0.5), collide(2), collide(8)
	if !(near > mid && mid > far) {
		t.Fatalf("collision rates not monotone: %v %v %v", near, mid, far)
	}
}

// Monte Carlo check of Lemma 3's closed form: empirical collision
// probability of two points at distance d matches collisionProb(d, w).
func TestCollisionProbMatchesMonteCarlo(t *testing.T) {
	const draws = 60_000
	rng := points.NewRand(5)
	for _, tc := range []struct{ d, w float64 }{
		{1, 4}, {2, 4}, {4, 4}, {8, 4}, {1, 1},
	} {
		p := points.Vector{0, 0, 0}
		q := points.Vector{tc.d, 0, 0}
		hits := 0
		for i := 0; i < draws; i++ {
			f := NewFunc(3, tc.w, rng)
			if f.Hash(p) == f.Hash(q) {
				hits++
			}
		}
		got := float64(hits) / draws
		want := collisionProb(tc.d, tc.w)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("d=%v w=%v: empirical %v vs formula %v", tc.d, tc.w, got, want)
		}
	}
}

func TestNewFuncValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive width")
		}
	}()
	NewFunc(2, 0, points.NewRand(1))
}

// Property: group keys respect the AND construction — two points share a
// group key iff every individual function agrees.
func TestGroupKeyANDSemantics(t *testing.T) {
	l := NewLayouts(3, 1, 4, 3.0, 9)
	f := func(ax, ay, az, bx, by, bz float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 100)
		}
		p := points.Vector{clamp(ax), clamp(ay), clamp(az)}
		q := points.Vector{clamp(bx), clamp(by), clamp(bz)}
		allAgree := true
		for _, h := range l.Groups[0].Funcs {
			if h.Hash(p) != h.Hash(q) {
				allAgree = false
				break
			}
		}
		return (l.Keys(p)[0] == l.Keys(q)[0]) == allAgree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: any point strictly within GuaranteeRadius of p shares p's key
// in the layout GuaranteeRadius returns — the certificate the kNN-join
// fallback test relies on, and the bucket the join routes the query to.
// Probed with random directions at fractions of the radius.
func TestGuaranteeRadius(t *testing.T) {
	rng := points.NewRand(31)
	l := NewLayouts(3, 4, 3, 2.5, 7)
	for trial := 0; trial < 200; trial++ {
		p := points.Vector{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		var kb KeyBuf
		l.Hash(&kb, p)
		g, layout := l.GuaranteeRadius(&kb)
		if g < 0 || math.IsNaN(g) || layout < 0 || layout >= l.M() {
			t.Fatalf("GuaranteeRadius(%v) = %v, layout %d", p, g, layout)
		}
		if g == 0 || math.IsInf(g, 1) {
			continue
		}
		pk := l.Keys(p)
		for _, frac := range []float64{0.1, 0.5, 0.9, 0.999} {
			dir := points.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			n := math.Sqrt(dot(dir, dir))
			if n == 0 {
				continue
			}
			q := make(points.Vector, 3)
			for j := range q {
				q[j] = p[j] + dir[j]/n*g*frac
			}
			if l.Keys(q)[layout] != pk[layout] {
				t.Fatalf("point at %.3f·g of %v leaves its bucket in the returned layout %d", frac, p, layout)
			}
		}
	}
}

// TestGuaranteeRadiusLayout pins which layout is returned when the margins
// do not single one out: equal margins go to the lowest index, and a point
// on a slot edge in every layout gets layout 0 with radius 0. A layout with
// a NaN or ±Inf projection — a non-finite coordinate, or one large enough to
// overflow the dot product — certifies nothing: its margin is 0, never the
// +Inf that every NaN comparison failing used to leave behind.
func TestGuaranteeRadiusLayout(t *testing.T) {
	axis := func(a0, a1, b float64) Func { return Func{A: points.Vector{a0, a1}, B: b, W: 1} }
	l := flatten([]Group{
		{Funcs: []Func{axis(1, 0, 0)}},
		{Funcs: []Func{axis(0, 1, 0)}},
		{Funcs: []Func{axis(1, 0, 0.5)}},
	}, 2, 1, 1)
	var kb KeyBuf
	for _, c := range []struct {
		p      points.Vector
		margin float64
		layout int
	}{
		{points.Vector{0.25, 0.25}, 0.25, 0}, // layouts 0, 1 and 2 tie at 0.25
		{points.Vector{0.25, 0.5}, 0.5, 1},   // layout 1 alone is widest
		{points.Vector{0.5, 0.5}, 0.5, 0},    // layouts 0 and 1 tie, 2 sits on an edge
		{points.Vector{0.5, 0.75}, 0.5, 0},   // a later, smaller margin does not displace it
		{points.Vector{0, 0.25}, 0.5, 2},     // a later, strictly larger one does
	} {
		l.Hash(&kb, c.p)
		g, layout := l.GuaranteeRadius(&kb)
		if want := c.margin * (1 - 0x1p-20); g != want || layout != c.layout {
			t.Fatalf("%v: radius %v in layout %d, want %v in layout %d", c.p, g, layout, want, c.layout)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		p      points.Vector
		margin float64
		layout int
	}{
		{points.Vector{nan, 0.25}, 0, 0}, // 0·NaN: no layout escapes
		{points.Vector{0.25, inf}, 0, 0}, // nor 0·Inf
		{points.Vector{-inf, nan}, 0, 0},
		{points.Vector{1e308, 0.25}, 0.25, 1}, // finite but past every fraction: an edge in layouts 0 and 2
	} {
		l.Hash(&kb, c.p)
		g, layout := l.GuaranteeRadius(&kb)
		if want := c.margin * (1 - 0x1p-20); g != want || layout != c.layout {
			t.Fatalf("%v: radius %v in layout %d, want %v in layout %d", c.p, g, layout, want, c.layout)
		}
	}
	// Projections that overflow to ±Inf from finite coordinates, beside
	// constant functions (zero direction vector: an infinite margin of their
	// own, which must not survive as the layout's).
	big := flatten([]Group{
		{Funcs: []Func{axis(0x1p700, 0x1p700, 0), axis(0, 0, 0.5)}},
		{Funcs: []Func{axis(0, 0, 0.5), axis(-0x1p700, 0, 0)}},
		{Funcs: []Func{axis(0x1p-400, 0, 0.25), axis(0, 0, 0.5)}},
	}, 2, 2, 1)
	big.Hash(&kb, points.Vector{0x1p400, 0x1p400})
	if g, layout := big.GuaranteeRadius(&kb); g != 0x1p398*(1-0x1p-20) || layout != 2 {
		t.Fatalf("overflow in layouts 0 and 1: radius %v in layout %d, want the finite layout 2", g, layout)
	}
	for _, p := range []points.Vector{{nan, 0}, {0, inf}, {inf, -inf}} {
		big.Hash(&kb, p)
		if g, layout := big.GuaranteeRadius(&kb); g != 0 || layout != 0 {
			t.Fatalf("%v: radius %v in layout %d, want 0 in layout 0", p, g, layout)
		}
	}
	edges := flatten([]Group{{Funcs: []Func{axis(1, 0, 0)}}, {Funcs: []Func{axis(0, 1, 0)}}}, 2, 1, 1)
	edges.Hash(&kb, points.Vector{3, -2})
	if g, layout := edges.GuaranteeRadius(&kb); g != 0 || layout != 0 {
		t.Fatalf("all margins zero: radius %v in layout %d, want 0 in layout 0", g, layout)
	}
}
