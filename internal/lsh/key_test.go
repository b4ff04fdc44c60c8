package lsh

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/points"
)

// checkSlots hashes p under l, compares every slot — read back out of the
// keys — with the scalar reference, Func.Hash, and returns the slots in
// (layout, function) order.
func checkSlots(t *testing.T, l *Layouts, kb *KeyBuf, p points.Vector) []int64 {
	t.Helper()
	l.Hash(kb, p)
	var all []int64
	for m, g := range l.Groups {
		layout, slots, err := DecodeKey(string(kb.Key(m)))
		if err != nil || layout != m || len(slots) != len(g.Funcs) {
			t.Fatalf("dim %d layout %d at %v: key %x decodes to layout %d, slots %v, %v", len(p), m, p, kb.Key(m), layout, slots, err)
		}
		for i, f := range g.Funcs {
			if want := f.Hash(p); slots[i] != want {
				t.Fatalf("dim %d layout %d func %d at %v: slot %d, Func.Hash %d", len(p), m, i, p, slots[i], want)
			}
		}
		all = append(all, slots...)
	}
	return all
}

// TestSlotsMatchFuncHash pins the blocked projection pass to the scalar
// hash bit for bit: every dimension around the unroll, function counts on
// and off a multiple of four (so both the four-lane body and the scalar
// tail run), points steered onto and just around slot edges, and negative
// slots.
func TestSlotsMatchFuncHash(t *testing.T) {
	var kb KeyBuf
	rng := points.NewRand(17)
	for _, dim := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		for _, shape := range []struct{ m, pi int }{{3, 3}, {5, 1}, {2, 2}, {10, 3}, {1, 7}, {1, 1}} {
			l := NewLayouts(dim, shape.m, shape.pi, 2.5, int64(100*dim+shape.m))
			negative := false
			for trial := 0; trial < 40; trial++ {
				p := make(points.Vector, dim)
				for i := range p {
					p[i] = rng.NormFloat64() * 30
				}
				for _, s := range checkSlots(t, l, &kb, p) {
					negative = negative || s < 0
				}
				// Steer coordinate 0 so one function's projection lands on a
				// slot edge, then nudge it an ulp either way: the roundings
				// of the blocked and scalar sums must fall the same side.
				f := l.Groups[trial%shape.m].Funcs[trial%shape.pi]
				if f.A[0] == 0 {
					continue
				}
				rest := f.A.Dot(p) - f.A[0]*p[0]
				edge := float64(trial%7 - 3)
				p[0] = (edge*f.W - f.B - rest) / f.A[0]
				for _, x := range []float64{p[0], math.Nextafter(p[0], math.Inf(1)), math.Nextafter(p[0], math.Inf(-1))} {
					p[0] = x
					checkSlots(t, l, &kb, p)
				}
			}
			if !negative {
				t.Fatalf("dim %d shape %v: no negative slot exercised", dim, shape)
			}
		}
	}

	// Dyadic functions make the edge exact: (a·p + b)/w is an integer with
	// no rounding anywhere, so the slot must be that integer, not one below.
	fs := []Func{
		{A: points.Vector{1, 0}, B: 0, W: 0.25},
		{A: points.Vector{0.5, 0.25}, B: 0.125, W: 0.25},
		{A: points.Vector{-2, 1}, B: 0, W: 0.25},
		{A: points.Vector{0, 0}, B: 0.125, W: 0.25},
		{A: points.Vector{0, -1}, B: 0.125, W: 0.25},
	}
	l := flatten([]Group{{Funcs: fs}}, 2, len(fs), 0.25)
	for _, c := range []struct {
		p    points.Vector
		want []int64
	}{
		{points.Vector{0, 0}, []int64{0, 0, 0, 0, 0}},
		{points.Vector{0.75, 1}, []int64{3, 3, -2, 0, -4}},
		{points.Vector{-0.25, -0.5}, []int64{-1, -1, 0, 0, 2}},
		{points.Vector{-3, 0.125}, []int64{-12, -6, 24, 0, 0}},
	} {
		got := checkSlots(t, l, &kb, c.p)
		for i, want := range c.want {
			if got[i] != want {
				t.Fatalf("exact edge: func %d at %v: slot %d, want %d", i, c.p, got[i], want)
			}
		}
	}
}

// TestSlotOfHostileProjection pins the slot of a projection int64 cannot
// hold: Go leaves that conversion to the implementation, and a key must not
// depend on the architecture that computed it.
func TestSlotOfHostileProjection(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want int64
	}{
		{math.NaN(), math.MinInt64},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{0x1p63, math.MaxInt64},
		{-0x1p63, math.MinInt64},
		{math.Nextafter(0x1p63, 0), 0x7ffffffffffffc00},
		{math.Nextafter(-0x1p63, 0), -0x7ffffffffffffc00},
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
		{-0.0, 0},
		{-0.5, -1},
	} {
		if got := slot(c.v); got != c.want {
			t.Errorf("slot(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Through the whole path: hostile coordinates still give every layout a
	// key that decodes, to the slots Func.Hash computes.
	l := NewLayouts(3, 3, 3, 2.0, 5)
	var kb KeyBuf
	for _, p := range []points.Vector{
		{math.NaN(), 1, 2},
		{math.Inf(1), 0, 0},
		{math.Inf(1), math.Inf(-1), 0},
		{1e308, 1e308, -1e308},
		{-1e300, 5, 1e-300},
	} {
		checkSlots(t, l, &kb, p)
	}
}

// TestAppendKeysNoAlloc: hashing into a warm KeyBuf — projections, and all M
// keys appended to its buffer — allocates nothing.
func TestAppendKeysNoAlloc(t *testing.T) {
	l := NewLayouts(8, 10, 3, 2.5, 3)
	p := points.Vector{1, -2, 3, -4, 5, -6, 7, -8}
	var kb KeyBuf
	l.Hash(&kb, p)
	if n := testing.AllocsPerRun(200, func() { l.Hash(&kb, p) }); n != 0 {
		t.Fatalf("Layouts.Hash allocates %v times per point, want 0", n)
	}
	if got := len(kb.Bytes()); got < 10*(1+3) {
		t.Fatalf("%d key bytes for 10 layouts of 3 slots", got)
	}
}

// referenceRadius is GuaranteeRadius as it was computed before the one-pass
// form: a second projection per function and ‖a‖ recomputed every call.
func referenceRadius(l *Layouts, p points.Vector) float64 {
	best := 0.0
	for _, g := range l.Groups {
		margin := math.Inf(1)
		for _, f := range g.Funcs {
			v := (f.A.Dot(p) + f.B) / f.W
			frac := v - math.Floor(v)
			edge := frac
			if 1-frac < edge {
				edge = 1 - frac
			}
			n2 := 0.0
			for _, a := range f.A {
				n2 += a * a
			}
			if n2 == 0 {
				continue
			}
			if m := edge * f.W / math.Sqrt(n2); m < margin {
				margin = m
			}
		}
		if margin > best {
			best = margin
		}
	}
	return best * (1 - 0x1p-20)
}

// TestGuaranteeRadiusMatchesReference pins the radius derived from the one
// projection pass and the cached norms to the old two-pass formula, bit for
// bit, on random points, on points steered onto a slot edge, and with a
// zero direction vector in the mix.
func TestGuaranteeRadiusMatchesReference(t *testing.T) {
	rng := points.NewRand(23)
	var kb KeyBuf
	check := func(l *Layouts, p points.Vector) {
		t.Helper()
		l.Hash(&kb, p)
		g, _ := l.GuaranteeRadius(&kb)
		if got, want := g, referenceRadius(l, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dim %d at %v: radius %v, reference %v", len(p), p, got, want)
		}
	}
	for _, dim := range []int{1, 3, 8} {
		l := NewLayouts(dim, 5, 3, 1.75, int64(dim))
		for trial := 0; trial < 300; trial++ {
			p := make(points.Vector, dim)
			for i := range p {
				p[i] = rng.NormFloat64() * 10
			}
			check(l, p)
			f := l.Groups[trial%5].Funcs[trial%3]
			rest := f.A.Dot(p) - f.A[0]*p[0]
			p[0] = (float64(trial%5-2)*f.W - f.B - rest) / f.A[0]
			check(l, p)
		}
	}
	zero := flatten([]Group{
		{Funcs: []Func{{A: points.Vector{0, 0}, B: 0.3, W: 1}, {A: points.Vector{1, 1}, B: 0, W: 1}}},
		{Funcs: []Func{{A: points.Vector{0, 0}, B: 0.1, W: 1}, {A: points.Vector{0, 0}, B: 0.2, W: 1}}},
	}, 2, 2, 1)
	check(zero, points.Vector{0.25, 0.5})
	check(zero, points.Vector{1, 1})
}

func TestCachedSharesOneDraw(t *testing.T) {
	a, b := Cached(3, 4, 2, 1.5, 99), Cached(3, 4, 2, 1.5, 99)
	if a != b {
		t.Fatal("Cached drew the same parameters twice")
	}
	if Cached(3, 4, 2, 1.5, 100) == a {
		t.Fatal("Cached ignored the seed")
	}
	p := points.Vector{1, 2, 3}
	fresh := NewLayouts(3, 4, 2, 1.5, 99).Keys(p)
	for m, k := range a.Keys(p) {
		if k != fresh[m] {
			t.Fatalf("layout %d: cached key %x, fresh key %x", m, k, fresh[m])
		}
	}
}

func TestKeyStringParseRoundTrip(t *testing.T) {
	for _, c := range []struct {
		layout int
		slots  []int64
		text   string
	}{
		{0, []int64{1, 2, 3}, "0|1.2.3"},
		{7, []int64{-1, 0, 64}, "7|-1.0.64"},
		{200, []int64{math.MinInt64, math.MaxInt64, -64}, "200|-9223372036854775808.9223372036854775807.-64"},
	} {
		key := string(AppendKey(nil, c.layout, c.slots))
		if got := KeyString(key); got != c.text {
			t.Fatalf("KeyString(%x) = %q, want %q", key, got, c.text)
		}
		back, err := ParseKey(c.text, c.layout+1, len(c.slots))
		if err != nil || back != key {
			t.Fatalf("ParseKey(%q) = %x, %v; want %x", c.text, back, err, key)
		}
	}
	for _, bad := range []string{
		"", "0", "0|", "|1.2.3", "0|1.2", "0|1.2.3.4", "3|1.2.3", "-1|1.2.3",
		"0|1.2.x", "0|+1.2.3", "0|01.2.3", "0|-0.2.3", "00|1.2.3", "0|1.2.3 ",
		"0|1..3", "0|9223372036854775808.0.0", "a2|zz.-1k.0",
	} {
		if key, err := ParseKey(bad, 3, 3); err == nil {
			t.Errorf("ParseKey(%q) accepted as %x", bad, key)
		}
	}
	if got := KeyString("\x80"); got != "?80" {
		t.Errorf("KeyString of a truncated key = %q", got)
	}
}

// FuzzKeyRoundTrip: whatever the slots, decode(encode) returns them; whatever
// the bytes, DecodeKey either refuses them or has found exactly the bytes
// AppendKey writes for what it decoded — it never panics and never accepts
// two spellings of one key.
func FuzzKeyRoundTrip(f *testing.F) {
	f.Add(0, int64(0), int64(0), int64(0), []byte{})
	f.Add(3, int64(-1), int64(63), int64(-64), []byte{3, 1, 126, 127})
	f.Add(9, int64(math.MinInt64), int64(math.MaxInt64), int64(1)<<40, []byte{0x80})
	f.Add(127, int64(64), int64(-65), int64(300), []byte{0x80, 0x00, 0x02})                                           // padded layout varint
	f.Add(128, int64(1), int64(2), int64(3), []byte{0x00, 0x82, 0x00})                                                // padded slot varint
	f.Add(1<<20, int64(5), int64(6), int64(7), []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // overflowing slot
	f.Add(1, int64(0), int64(0), int64(0), []byte("0|a2.-1k.zz"))                                                     // an old text key
	f.Fuzz(func(t *testing.T, layout int, s0, s1, s2 int64, raw []byte) {
		if layout >= 0 && layout <= math.MaxInt32 {
			slots := []int64{s0, s1, s2}
			key := string(AppendKey(nil, layout, slots))
			gotLayout, gotSlots, err := DecodeKey(key)
			if err != nil || gotLayout != layout || fmt.Sprint(gotSlots) != fmt.Sprint(slots) {
				t.Fatalf("decode(encode(%d, %v)) = %d, %v, %v", layout, slots, gotLayout, gotSlots, err)
			}
			if back, err := ParseKey(KeyString(key), layout+1, 3); err != nil || back != key {
				t.Fatalf("ParseKey(KeyString(%x)) = %x, %v", key, back, err)
			}
		}
		gotLayout, gotSlots, err := DecodeKey(string(raw))
		if err != nil {
			return
		}
		if again := AppendKey(nil, gotLayout, gotSlots); string(again) != string(raw) {
			t.Fatalf("DecodeKey accepted %x as (%d, %v), which encodes as %x", raw, gotLayout, gotSlots, again)
		}
	})
}

// BenchmarkKeys measures the key path per point at the benchmark harness's
// shape (M = 10 layouts of π = 3 functions): "hash" is the zero-allocation
// form the engine and the router use, "strings" the Keys convenience form
// the map tasks' EachKey shares its one string copy with.
func BenchmarkKeys(b *testing.B) {
	for _, dim := range []int{4, 8} {
		l := NewLayouts(dim, 10, 3, 2.5, 1)
		rng := points.NewRand(int64(dim))
		pts := make([]points.Vector, 1024)
		for i := range pts {
			pts[i] = make(points.Vector, dim)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64() * 20
			}
		}
		b.Run(fmt.Sprintf("hash/dim=%d", dim), func(b *testing.B) {
			var kb KeyBuf
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Hash(&kb, pts[i%len(pts)])
			}
		})
		b.Run(fmt.Sprintf("strings/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			var keys []string
			for i := 0; i < b.N; i++ {
				keys = l.Keys(pts[i%len(pts)])
			}
			_ = keys
		})
	}
}
