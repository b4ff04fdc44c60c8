package points

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestPointCodecRoundTrip(t *testing.T) {
	p := Point{ID: 42, Pos: Vector{1.5, -2.25, 1e300, 0}}
	got := MustDecodePoint(EncodePoint(p))
	if got.ID != p.ID || len(got.Pos) != len(p.Pos) {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range p.Pos {
		if got.Pos[i] != p.Pos[i] {
			t.Fatalf("coordinate %d = %v, want %v", i, got.Pos[i], p.Pos[i])
		}
	}
}

// Property: every generated point round-trips exactly, including special
// float values, and leaves no residue.
func TestPointCodecRoundTripProperty(t *testing.T) {
	f := func(id int32, coords []float64) bool {
		p := Point{ID: id, Pos: Vector(coords)}
		dec, rest, err := DecodePoint(EncodePoint(p))
		if err != nil || len(rest) != 0 || dec.ID != id || len(dec.Pos) != len(coords) {
			return false
		}
		for i := range coords {
			// NaN != NaN; compare bit patterns.
			if math.Float64bits(dec.Pos[i]) != math.Float64bits(coords[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPointCodecConcatenation(t *testing.T) {
	// Multiple points appended to one buffer decode sequentially.
	var buf []byte
	want := []Point{
		{ID: 1, Pos: Vector{1}},
		{ID: 2, Pos: Vector{2, 3}},
		{ID: 3, Pos: Vector{}},
	}
	for _, p := range want {
		buf = AppendPoint(buf, p)
	}
	for _, w := range want {
		var p Point
		var err error
		p, buf, err = DecodePoint(buf)
		if err != nil {
			t.Fatal(err)
		}
		if p.ID != w.ID || len(p.Pos) != len(w.Pos) {
			t.Fatalf("got %+v, want %+v", p, w)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d residual bytes", len(buf))
	}
}

func TestPointCodecErrors(t *testing.T) {
	if _, _, err := DecodePoint([]byte{1, 2, 3}); err == nil {
		t.Fatal("want error on short header")
	}
	// Header claims 5 floats but body is empty.
	buf := EncodePoint(Point{ID: 1, Pos: Vector{1, 2, 3, 4, 5}})[:8]
	if _, _, err := DecodePoint(buf); err == nil {
		t.Fatal("want error on short body")
	}
}

func TestMustDecodePanicsOnTrailing(t *testing.T) {
	buf := append(EncodePoint(Point{ID: 1, Pos: Vector{1}}), 0xFF)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on trailing bytes")
		}
	}()
	MustDecodePoint(buf)
}

func TestRhoPointCodec(t *testing.T) {
	rp := RhoPoint{Point: Point{ID: 9, Pos: Vector{7, 8}}, Rho: 123.5}
	got := MustDecodeRhoPoint(EncodeRhoPoint(rp))
	if got.ID != 9 || got.Rho != 123.5 || got.Pos[1] != 8 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, _, err := DecodeRhoPoint(EncodePoint(rp.Point)); err == nil {
		t.Fatal("want error when rho tail missing")
	}
}

func TestRhoValueCodec(t *testing.T) {
	rv := RhoValue{ID: -1, Rho: math.Inf(1)}
	got, err := DecodeRhoValue(EncodeRhoValue(rv))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != -1 || !math.IsInf(got.Rho, 1) {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := DecodeRhoValue([]byte{1}); err == nil {
		t.Fatal("want error on wrong size")
	}
}

func TestDeltaValueCodec(t *testing.T) {
	cases := []DeltaValue{
		{ID: 0, Delta: 1.5, Upslope: 7},
		{ID: 1 << 20, Delta: math.Inf(1), Upslope: -1},
		{ID: 3, Delta: 0, Upslope: 0},
	}
	for _, dv := range cases {
		got, err := DecodeDeltaValue(EncodeDeltaValue(dv))
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != dv.ID || got.Upslope != dv.Upslope ||
			math.Float64bits(got.Delta) != math.Float64bits(dv.Delta) {
			t.Fatalf("round trip %+v = %+v", dv, got)
		}
	}
	if _, err := DecodeDeltaValue(make([]byte, 15)); err == nil {
		t.Fatal("want error on wrong size")
	}
}

// Property: DeltaValue codec round-trips arbitrary content.
func TestDeltaValueCodecProperty(t *testing.T) {
	f := func(id, up int32, delta float64) bool {
		dv := DeltaValue{ID: id, Delta: delta, Upslope: up}
		got, err := DecodeDeltaValue(EncodeDeltaValue(dv))
		return err == nil && got.ID == id && got.Upslope == up &&
			math.Float64bits(got.Delta) == math.Float64bits(delta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rhoPartialEqual compares two partials field by field, floats by bits.
func rhoPartialEqual(a, b RhoPartial) bool {
	if a.ID != b.ID || a.Gaussian != b.Gaussian || a.First != b.First || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return slices.Equal(a.Near, b.Near)
}

// neighborBytesOf spells a neighbour list entry by entry, as the codec does.
func neighborBytesOf(ns ...Neighbor) []byte { return appendNeighbors(nil, ns) }

func TestNeighborListCodec(t *testing.T) {
	near := []Neighbor{{ID: 4, D2: 0}, {ID: 2, D2: 1.5}, {ID: 3, D2: 1.5}, {ID: -7, D2: 1e300}}
	for _, p := range []RhoPartial{
		{ID: 1, First: 0, Vals: []float64{3, 1}, Near: near},
		{ID: 1, Gaussian: true, First: 2, Vals: []float64{0.5}, Near: near[:1]},
		{ID: 1, Near: near[3:]}, // a list without a share
	} {
		got, err := DecodeRhoPartial(AppendRhoPartial(nil, p))
		if err != nil || !rhoPartialEqual(got, p) {
			t.Errorf("decode(encode(%+v)) = %+v, %v", p, got, err)
		}
	}
	rv := RhoValue{ID: 1, Rho: 7, Near: near}
	if got, err := DecodeRhoValue(EncodeRhoValue(rv)); err != nil || got.ID != 1 || got.Rho != 7 || !slices.Equal(got.Near, near) {
		t.Errorf("decode(encode(%+v)) = %+v, %v", rv, got, err)
	}
	if n := len(EncodeRhoValue(rv)); n != 12+12*len(near) {
		t.Errorf("rho value with %d neighbours is %d bytes", len(near), n)
	}
	head := []byte{1, 0, 0, 0, 0x02} // ID 1, First 0, a list follows
	for name, list := range map[string][]byte{
		"no length":        nil,
		"length 0":         {0x00},
		"padded length":    {0x81, 0x00},
		"short entries":    append([]byte{0x02}, neighborBytesOf(near[0])...),
		"own id":           append([]byte{0x01}, neighborBytesOf(Neighbor{ID: 1, D2: 1})...),
		"out of order":     append([]byte{0x02}, neighborBytesOf(near[1], near[0])...),
		"id order on ties": append([]byte{0x02}, neighborBytesOf(near[2], near[1])...),
		"id twice":         append([]byte{0x02}, neighborBytesOf(Neighbor{ID: 5, D2: 1}, Neighbor{ID: 5, D2: 2})...),
		"negative d2":      append([]byte{0x01}, neighborBytesOf(Neighbor{ID: 5, D2: -1})...),
		"minus zero":       append([]byte{0x01}, neighborBytesOf(Neighbor{ID: 5, D2: math.Copysign(0, -1)})...),
		"infinite d2":      append([]byte{0x01}, neighborBytesOf(Neighbor{ID: 5, D2: math.Inf(1)})...),
		"NaN d2":           append([]byte{0x01}, neighborBytesOf(Neighbor{ID: 5, D2: math.NaN()})...),
	} {
		if p, err := DecodeRhoPartial(append(slices.Clip(head), list...)); err == nil {
			t.Errorf("%s: DecodeRhoPartial accepted %+v", name, p)
		}
		if len(list) > 1 && name != "short entries" {
			if rv, err := DecodeRhoValue(append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, list[1:]...)); err == nil {
				t.Errorf("%s: DecodeRhoValue accepted %+v", name, rv)
			}
		}
	}
	if rv, err := DecodeRhoValue(make([]byte, 13)); err == nil {
		t.Errorf("DecodeRhoValue accepted a 13-byte value as %+v", rv)
	}
}

func TestShipMask(t *testing.T) {
	rec := EncodeRhoPoint(RhoPoint{Point: Point{ID: 3, Pos: Vector{1, 2}}, Rho: 4})
	for _, tc := range []struct {
		mask, tail []byte
	}{
		{nil, []byte{0}},
		{[]byte{0, 0}, []byte{0}},
		{[]byte{0x05, 0}, []byte{0x05}},
		{[]byte{0, 0x80}, []byte{0, 0x80}},
	} {
		buf := AppendShipMask(slices.Clip(rec), tc.mask)
		if tail := buf[len(rec):]; !slices.Equal(tail, tc.tail) {
			t.Errorf("mask %x ships as %x, want %x", tc.mask, tail, tc.tail)
		}
		rp, rest, err := DecodeRhoPoint(buf)
		certified, mask, merr := ShipMask(rest)
		if err != nil || merr != nil || rp.ID != 3 || !certified || (len(mask) == 0) != (tc.tail[len(tc.tail)-1] == 0) {
			t.Errorf("mask %x: decoded %+v certified %v mask %x, %v %v", tc.mask, rp, certified, mask, err, merr)
		}
	}
	if certified, mask, err := ShipMask(nil); certified || mask != nil || err != nil {
		t.Errorf("an open row's empty tail reads as certified %v mask %x, %v", certified, mask, err)
	}
	for _, bad := range [][]byte{{0, 0}, {1, 0}, {0x80, 0, 0}} {
		if _, _, err := ShipMask(bad); err == nil {
			t.Errorf("ShipMask accepted untrimmed %x", bad)
		}
	}
}

func TestRhoPartialRoundTrip(t *testing.T) {
	for _, tc := range []struct{ in, want RhoPartial }{
		{RhoPartial{ID: 7, First: 2, Vals: []float64{3, 0, 1 << 53}}, RhoPartial{ID: 7, First: 2, Vals: []float64{3, 0, 1 << 53}}},
		// Zero values at either end are not written; First moves with them.
		{RhoPartial{ID: -1, First: 1, Vals: []float64{0, 0, 5, 300, 0}}, RhoPartial{ID: -1, First: 3, Vals: []float64{5, 300}}},
		{RhoPartial{ID: 9, First: 4, Vals: []float64{0, 0}}, RhoPartial{ID: 9, Vals: []float64{}}},
		{RhoPartial{ID: 9, Gaussian: true, First: 4}, RhoPartial{ID: 9, Gaussian: true, Vals: []float64{}}},
		{RhoPartial{ID: 1, Gaussian: true, First: 0, Vals: []float64{0, 0.25, math.Copysign(0, -1), math.Inf(1), 0}},
			RhoPartial{ID: 1, Gaussian: true, First: 1, Vals: []float64{0.25, math.Copysign(0, -1), math.Inf(1)}}},
	} {
		buf := AppendRhoPartial(nil, tc.in)
		got, err := DecodeRhoPartial(buf)
		if err != nil || !rhoPartialEqual(got, tc.want) {
			t.Errorf("decode(encode(%+v)) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	if n := len(AppendRhoPartial(nil, RhoPartial{ID: 3, First: 6, Vals: []float64{0}})); n != 5 {
		t.Errorf("all-zero partial is %d bytes, want 5", n)
	}
	for _, bad := range [][]byte{
		nil,
		{1, 0, 0, 0},                       // no header
		{1, 0, 0, 0, 0x80, 0x00},           // padded header varint
		{1, 0, 0, 0, 0x04},                 // empty, First 1
		{1, 0, 0, 0, 0x02},                 // a list flagged, no length
		{1, 0, 0, 0, 0x00, 0x00, 0x05},     // leading zero count
		{1, 0, 0, 0, 0x00, 0x05, 0x00},     // trailing zero count
		{1, 0, 0, 0, 0x00, 0x85, 0x00},     // padded count varint
		{1, 0, 0, 0, 0x00, 0x85},           // truncated count varint
		{1, 0, 0, 0, 0x01, 1, 2, 3},        // float kind, 3 bytes of sums
		{1, 0, 0, 0, 0x80, 0x80, 0x80, 01}, // First 2²⁰
		append([]byte{1, 0, 0, 0, 0x00}, binary.AppendUvarint(nil, 1<<53+1)...), // count past 2⁵³
		append([]byte{1, 0, 0, 0, 0x01}, make([]byte, 8)...),                    // float kind, one +0
	} {
		if p, err := DecodeRhoPartial(bad); err == nil {
			t.Errorf("DecodeRhoPartial(%x) accepted as %+v", bad, p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendRhoPartial encoded a fractional count")
		}
	}()
	AppendRhoPartial(nil, RhoPartial{Vals: []float64{1.5}})
}

// FuzzRhoPartialRoundTrip: whatever the values and neighbour list,
// decode(encode) returns them, the values trimmed of zero ends; whatever the
// bytes, DecodeRhoPartial, DecodeRhoValue and ShipMask each either refuse
// them or have found exactly the bytes their encoder writes for what they
// decoded — they never panic, never accept two spellings of one record, and
// never trust a length the bytes do not hold.
func FuzzRhoPartialRoundTrip(f *testing.F) {
	list := neighborBytesOf(Neighbor{ID: 3, D2: 0}, Neighbor{ID: 9, D2: 2.5})
	f.Add(int32(0), false, 0, uint64(0), uint64(0), uint64(0), []byte{}, []byte{})
	f.Add(int32(7), false, 2, uint64(3), uint64(0), uint64(1)<<53, list, []byte{7, 0, 0, 0, 4, 3, 0, 1})
	f.Add(int32(-1), true, 9, math.Float64bits(0.5), uint64(0), math.Float64bits(math.NaN()), list[:12], []byte{1, 0, 0, 0, 0x80, 0x00})
	f.Add(int32(5), false, 1<<20-1, uint64(0), uint64(128), uint64(0), []byte{}, []byte{1, 0, 0, 0, 0x00, 0x00, 0x05})
	f.Add(int32(5), true, 0, uint64(1)<<63, uint64(1), uint64(2), list, append([]byte{1, 0, 0, 0, 0x03}, make([]byte, 16)...))
	f.Add(int32(5), false, 3, uint64(1)<<60, uint64(1), uint64(2), []byte{}, []byte{1, 0, 0, 0, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(int32(1), false, 0, uint64(1), uint64(0), uint64(0), list, append([]byte{1, 0, 0, 0, 0x02, 0x02}, list...))
	f.Add(int32(1), false, 0, uint64(1), uint64(0), uint64(0), list, append(make([]byte, 12), list...))
	f.Add(int32(1), false, 0, uint64(0), uint64(0), uint64(0), []byte{}, []byte{0x05, 0x01})
	f.Fuzz(func(t *testing.T, id int32, gaussian bool, first int, v0, v1, v2 uint64, near, raw []byte) {
		// A well-formed list from the fuzzer's entries: the ones a list can
		// hold, each ID once, in (d², ID) order.
		var ns []Neighbor
		for ; len(near) >= neighborBytes; near = near[neighborBytes:] {
			e := Neighbor{ID: int32(binary.LittleEndian.Uint32(near)), D2: DecodeFloat64(near[4:])}
			if e.D2 >= 0 && e.D2 < math.Inf(1) && !math.Signbit(e.D2) && e.ID != id &&
				!slices.ContainsFunc(ns, func(o Neighbor) bool { return o.ID == e.ID }) {
				ns = append(ns, e)
			}
		}
		slices.SortFunc(ns, func(a, b Neighbor) int {
			if a.D2 != b.D2 {
				return cmp.Compare(a.D2, b.D2)
			}
			return cmp.Compare(a.ID, b.ID)
		})
		if first >= 0 && first+3 < maxLayouts {
			p := RhoPartial{ID: id, Gaussian: gaussian, First: first, Near: ns}
			for _, v := range []uint64{v0, v1, v2} {
				if gaussian {
					p.Vals = append(p.Vals, math.Float64frombits(v))
				} else {
					p.Vals = append(p.Vals, float64(v%(maxCount+1)))
				}
			}
			buf := AppendRhoPartial(nil, p)
			got, err := DecodeRhoPartial(buf)
			if err != nil {
				t.Fatalf("decode(encode(%+v)): %v", p, err)
			}
			// What comes back is p without its zero ends.
			full := make([]float64, 3)
			if len(got.Vals) > 0 {
				copy(full[got.First-first:], got.Vals)
			}
			for i, v := range p.Vals {
				if v != full[i] && !(v != v && full[i] != full[i]) {
					t.Fatalf("decode(encode(%+v)) = %+v", p, got)
				}
			}
			if got.ID != id || got.Gaussian != gaussian || !slices.Equal(got.Near, ns) || string(AppendRhoPartial(nil, got)) != string(buf) {
				t.Fatalf("decode(encode(%+v)) = %+v", p, got)
			}
		}
		rv := RhoValue{ID: id, Rho: math.Float64frombits(v0), Near: ns}
		if got, err := DecodeRhoValue(EncodeRhoValue(rv)); err != nil || got.ID != id ||
			math.Float64bits(got.Rho) != v0 || !slices.Equal(got.Near, ns) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", rv, got, err)
		}

		if got, err := DecodeRhoPartial(raw); err == nil {
			if again := AppendRhoPartial(nil, got); string(again) != string(raw) {
				t.Fatalf("DecodeRhoPartial accepted %x as %+v, which encodes as %x", raw, got, again)
			}
		}
		if got, err := DecodeRhoValue(raw); err == nil {
			if again := EncodeRhoValue(got); string(again) != string(raw) {
				t.Fatalf("DecodeRhoValue accepted %x as %+v, which encodes as %x", raw, got, again)
			}
		}
		if certified, mask, err := ShipMask(raw); err == nil {
			if certified != (len(raw) > 0) || certified && string(AppendShipMask(nil, mask)) != string(raw) {
				t.Fatalf("ShipMask accepted %x as certified %v mask %x", raw, certified, mask)
			}
		}
	})
}
