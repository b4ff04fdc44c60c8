package points

import (
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// boundaryIDs and boundaryDims are where a point header's varints change
// length: the largest one-, two- and four-byte IDs and the smallest after
// them, and −1, whose uint32 takes five.
var (
	boundaryIDs  = []int32{0, 127, 128, 16383, 16384, math.MaxInt32, -1}
	boundaryDims = []int{0, 1, 127, 128}
)

// uvarintLen is the length of v's minimal uvarint.
func uvarintLen(v uint64) int { return len(binary.AppendUvarint(nil, v)) }

func TestPointCodecRoundTrip(t *testing.T) {
	p := Point{ID: 42, Pos: Vector{1.5, -2.25, 1e300, 0}}
	got, rest, err := DecodePoint(EncodePoint(p))
	if err != nil || len(rest) != 0 || got.ID != p.ID || len(got.Pos) != len(p.Pos) {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range p.Pos {
		if got.Pos[i] != p.Pos[i] {
			t.Fatalf("coordinate %d = %v, want %v", i, got.Pos[i], p.Pos[i])
		}
	}
	// At every varint boundary the header is the two minimal varints, and
	// DecodePoint and the matrix decode both read the point back.
	for _, id := range boundaryIDs {
		for _, dim := range boundaryDims {
			p := Point{ID: id, Pos: make(Vector, dim)}
			for j := range p.Pos {
				p.Pos[j] = float64(j) - 0.5
			}
			buf := EncodePoint(p)
			if want := uvarintLen(uint64(uint32(id))) + uvarintLen(uint64(dim)) + 8*dim; len(buf) != want {
				t.Fatalf("point %d of dim %d is %d bytes, want %d", id, dim, len(buf), want)
			}
			got, rest, err := DecodePoint(buf)
			if err != nil || len(rest) != 0 || got.ID != id || !slices.Equal(got.Pos, p.Pos) {
				t.Fatalf("point %d of dim %d: decoded %+v, %d bytes left, %v", id, dim, got, len(rest), err)
			}
			var m Matrix
			if rest, err := m.AppendPoint(buf); err != nil || len(rest) != 0 || m.ID(0) != id || !slices.Equal(m.Row(0), p.Pos) {
				t.Fatalf("point %d of dim %d: matrix row %d %v, %d bytes left, %v", id, dim, m.ID(0), m.Row(0), len(rest), err)
			}
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

// TestPointCodecErrors: every header AppendPoint cannot have written, and
// every body shorter than its header says, is an error for DecodePoint and
// for the matrix decode alike.
func TestPointCodecErrors(t *testing.T) {
	five := EncodePoint(Point{ID: 1, Pos: Vector{1, 2, 3, 4, 5}})
	for name, buf := range map[string][]byte{
		"empty":          nil,
		"no dim":         {1},
		"truncated id":   {0x80},
		"truncated dim":  {1, 0x80},
		"padded id":      {0x81, 0x00, 0x00},
		"padded dim":     {0x01, 0x80, 0x00},
		"id past uint32": {0x80, 0x80, 0x80, 0x80, 0x10, 0x00},
		"six-byte id":    {0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00},
		"empty body":     five[:2],
		"short body":     five[:len(five)-1],
		"huge dim":       append([]byte{0x01}, binary.AppendUvarint(nil, 1<<31)...),
	} {
		if p, _, err := DecodePoint(buf); err == nil {
			t.Errorf("%s: DecodePoint accepted %x as %+v", name, buf, p)
		}
		var m Matrix
		if _, err := m.AppendPoint(buf); err == nil {
			t.Errorf("%s: the matrix decode accepted %x", name, buf)
		}
	}
}

// FuzzPointRecords holds the point record codecs to their contract on
// arbitrary bytes: DecodePoint and Matrix.AppendPoint accept the same
// records, as do DecodeRhoPoint and Matrix.AppendRhoPoint, and read the same
// point and rest; whatever they accept re-encodes to exactly the bytes they
// consumed, so a padded varint is refused; what follows a point reads, by
// ShipMask, as no mask or one that re-encodes to it. Nothing panics, and a
// header claiming more coordinates than the bytes hold errors before they
// are allocated.
func FuzzPointRecords(f *testing.F) {
	for _, id := range boundaryIDs {
		for _, dim := range boundaryDims {
			p := Point{ID: id, Pos: make(Vector, dim)}
			f.Add(EncodePoint(p))
			f.Add(AppendShipMask(EncodeRhoPoint(RhoPoint{Point: p, Rho: float64(dim)}), []byte{0x05}))
		}
	}
	for _, seed := range [][]byte{
		{0x81, 0x00, 0x00},                   // padded ID
		{0x01, 0x80, 0x00},                   // padded dim
		{0x80, 0x80, 0x80, 0x80, 0x10, 0x00}, // ID past a uint32
		append([]byte{0x01}, binary.AppendUvarint(nil, 1<<40)...),     // a dim no bytes back
		append(EncodePoint(Point{ID: 3, Pos: Vector{1}}), 0x05, 0x00), // an untrimmed mask
	} {
		f.Add(seed)
	}
	bitsEqual := func(a, b Vector) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, rest, err := DecodePoint(raw)
		rp, rpRest, rpErr := DecodeRhoPoint(raw)
		var m, mr Matrix
		mRest, mErr := m.AppendPoint(raw)
		mrRest, mrErr := mr.AppendRhoPoint(raw)
		runtime.ReadMemStats(&after)
		// The slack absorbs the fuzzing engine's own allocations; a dim the
		// bytes do not back would cost gigabytes.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+8*uint64(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), grew)
		}
		if (err == nil) != (mErr == nil) || (rpErr == nil) != (mrErr == nil) {
			t.Fatalf("%x: DecodePoint %v, matrix %v; DecodeRhoPoint %v, matrix %v", raw, err, mErr, rpErr, mrErr)
		}
		if err == nil {
			if again := EncodePoint(p); string(again) != string(raw[:len(raw)-len(rest)]) {
				t.Fatalf("DecodePoint accepted %x as %+v, which encodes as %x", raw, p, again)
			}
			if len(mRest) != len(rest) || m.N() != 1 || m.ID(0) != p.ID || !bitsEqual(m.Row(0), p.Pos) {
				t.Fatalf("%x: the matrix read point %d %v with %d bytes left, DecodePoint %+v with %d", raw, m.ID(0), m.Row(0), len(mRest), p, len(rest))
			}
			if masked, mask, err := ShipMask(rest); err == nil && (masked != (len(rest) > 0) || masked && string(AppendShipMask(nil, mask)) != string(rest)) {
				t.Fatalf("ShipMask accepted %x as masked %v mask %x", rest, masked, mask)
			}
		}
		if rpErr == nil {
			if again := EncodeRhoPoint(rp); string(again) != string(raw[:len(raw)-len(rpRest)]) {
				t.Fatalf("DecodeRhoPoint accepted %x as %+v, which encodes as %x", raw, rp, again)
			}
			if len(mrRest) != len(rpRest) || mr.ID(0) != rp.ID || math.Float64bits(mr.Rho(0)) != math.Float64bits(rp.Rho) || !bitsEqual(mr.Row(0), rp.Pos) {
				t.Fatalf("%x: the matrix read rho point %d %v %v, DecodeRhoPoint %+v", raw, mr.ID(0), mr.Row(0), mr.Rho(0), rp)
			}
		}
	})
}

func TestRhoPointCodec(t *testing.T) {
	rp := RhoPoint{Point: Point{ID: 9, Pos: Vector{7, 8}}, Rho: 123.5}
	got, rest, err := DecodeRhoPoint(EncodeRhoPoint(rp))
	if err != nil || len(rest) != 0 || got.ID != 9 || got.Rho != 123.5 || got.Pos[1] != 8 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, _, err := DecodeRhoPoint(EncodePoint(rp.Point)); err == nil {
		t.Fatal("want error when rho tail missing")
	}
}

func TestRhoValueCodec(t *testing.T) {
	buf := EncodeRhoValue(RhoValue{Rho: math.Inf(1)})
	got, err := DecodeRhoValue(buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 8 || !math.IsInf(got.Rho, 1) || got.Near != nil {
		t.Fatalf("round trip of %d bytes = %+v", len(buf), got)
	}
	for _, bad := range [][]byte{nil, {1}, make([]byte, 7), make([]byte, 9)} {
		if rv, err := DecodeRhoValue(bad, -1); err == nil {
			t.Errorf("DecodeRhoValue accepted %x as %+v", bad, rv)
		}
	}
}

func TestDeltaValueCodec(t *testing.T) {
	cases := []DeltaValue{
		{Delta: 1.5, Upslope: 7},
		{Delta: math.Inf(1), Upslope: -1},
		{Delta: 0, Upslope: 1 << 20},
	}
	for _, dv := range cases {
		buf := EncodeDeltaValue(dv)
		got, err := DecodeDeltaValue(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != 12 || got.Upslope != dv.Upslope || math.Float64bits(got.Delta) != math.Float64bits(dv.Delta) {
			t.Fatalf("round trip %+v in %d bytes = %+v", dv, len(buf), got)
		}
	}
	for _, n := range []int{0, 11, 13, 16} {
		if _, err := DecodeDeltaValue(make([]byte, n)); err == nil {
			t.Fatalf("a %d-byte delta value decoded", n)
		}
	}
}

// Property: DeltaValue codec round-trips arbitrary content.
func TestDeltaValueCodecProperty(t *testing.T) {
	f := func(up int32, delta float64) bool {
		dv := DeltaValue{Delta: delta, Upslope: up}
		got, err := DecodeDeltaValue(EncodeDeltaValue(dv))
		return err == nil && got.Upslope == up &&
			math.Float64bits(got.Delta) == math.Float64bits(delta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rhoPartialEqual compares two partials field by field, floats by bits.
func rhoPartialEqual(a, b RhoPartial) bool {
	if a.First != b.First || len(a.Vals) != len(b.Vals) {
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
		{First: 0, Vals: []float64{3, 1}, Near: near},
		{First: 2, Vals: []float64{5}, Near: near[:1]},
		{Near: near[3:]}, // a list without a share
	} {
		got, err := DecodeRhoPartial(AppendRhoPartial(nil, p), 1, RhoPartial{})
		if err != nil || !rhoPartialEqual(got, p) {
			t.Errorf("decode(encode(%+v)) = %+v, %v", p, got, err)
		}
	}
	rv := RhoValue{Rho: 7, Near: near}
	if got, err := DecodeRhoValue(EncodeRhoValue(rv), 1); err != nil || got.Rho != 7 || !slices.Equal(got.Near, near) {
		t.Errorf("decode(encode(%+v)) = %+v, %v", rv, got, err)
	}
	// An entry is its ID's minimal uvarint, then D2: IDs 4, 2 and 3 take a
	// byte each, −7 five.
	if n := len(EncodeRhoValue(rv)); n != 8+3*(1+8)+(5+8) {
		t.Errorf("rho value with %d neighbours is %d bytes", len(near), n)
	}
	// IDs at every varint boundary round-trip in both records, each entry
	// the minimal varint's bytes and D2.
	var wide []Neighbor
	size := 8
	for i, id := range boundaryIDs {
		wide = append(wide, Neighbor{ID: id, D2: float64(i)})
		size += uvarintLen(uint64(uint32(id))) + 8
	}
	if buf := EncodeRhoValue(RhoValue{Rho: 1, Near: wide}); len(buf) != size {
		t.Errorf("rho value listing %v is %d bytes, want %d", boundaryIDs, len(buf), size)
	} else if got, err := DecodeRhoValue(buf, 5); err != nil || !slices.Equal(got.Near, wide) {
		t.Errorf("rho value listing %v decoded to %+v, %v", boundaryIDs, got, err)
	}
	p := RhoPartial{First: 1, Vals: []float64{2}, Near: wide}
	if got, err := DecodeRhoPartial(AppendRhoPartial(nil, p), 5, RhoPartial{}); err != nil || !rhoPartialEqual(got, p) {
		t.Errorf("decode(encode(%+v)) = %+v, %v", p, got, err)
	}
	d2 := AppendFloat64(nil, 1)
	head := []byte{0x02} // First 0, a list follows
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
		"padded id":        append([]byte{0x01, 0x85, 0x00}, d2...),
		"id past uint32":   append([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x10}, d2...),
		"short d2":         append([]byte{0x01, 0x05}, d2[:7]...),
	} {
		if p, err := DecodeRhoPartial(append(slices.Clip(head), list...), 1, RhoPartial{}); err == nil {
			t.Errorf("%s: DecodeRhoPartial accepted %+v", name, p)
		}
		if len(list) > 1 && name != "short entries" {
			if rv, err := DecodeRhoValue(append(make([]byte, 8), list[1:]...), 1); err == nil {
				t.Errorf("%s: DecodeRhoValue accepted %+v", name, rv)
			}
		}
	}
	if rv, err := DecodeRhoValue(make([]byte, 13), 1); err == nil {
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
		{RhoPartial{First: 2, Vals: []float64{3, 0, 1 << 53}}, RhoPartial{First: 2, Vals: []float64{3, 0, 1 << 53}}},
		// Zero values at either end are not written; First moves with them.
		{RhoPartial{First: 1, Vals: []float64{0, 0, 5, 300, 0}}, RhoPartial{First: 3, Vals: []float64{5, 300}}},
		{RhoPartial{First: 4, Vals: []float64{0, 0}}, RhoPartial{Vals: []float64{}}},
	} {
		buf := AppendRhoPartial(nil, tc.in)
		got, err := DecodeRhoPartial(buf, 7, RhoPartial{})
		if err != nil || !rhoPartialEqual(got, tc.want) {
			t.Errorf("decode(encode(%+v)) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	if n := len(AppendRhoPartial(nil, RhoPartial{First: 6, Vals: []float64{0}})); n != 1 {
		t.Errorf("all-zero partial is %d bytes, want 1", n)
	}
	for _, bad := range [][]byte{
		nil,                      // no header
		{0x80, 0x00},             // padded header varint
		{0x04},                   // empty, First 1
		{0x02},                   // a list flagged, no length
		{0x00, 0x00, 0x05},       // leading zero count
		{0x00, 0x05, 0x00},       // trailing zero count
		{0x00, 0x85, 0x00},       // padded count varint
		{0x00, 0x85},             // truncated count varint
		{0x01, 1, 2, 3},          // kind bit, 3 bytes
		{0x80, 0x80, 0x80, 0x01}, // First 2¹⁹, no counts
		{0x80, 0x80, 0x80, 0x02}, // First 2²⁰
		append([]byte{0x00}, binary.AppendUvarint(nil, 1<<53+1)...), // count past 2⁵³
		// Header bit 0 once marked a record of float weight sums; no
		// encoder sets it now, so each record that had it is refused,
		// never read as counts.
		{0x01},                                   // kind bit, an empty share
		{0x05, 1, 2, 3},                          // kind bit, First 1, bytes that parse as counts
		append([]byte{0x01}, make([]byte, 8)...), // kind bit, one +0
		append(append([]byte{0x05}, AppendFloat64(nil, 0.25)...), AppendFloat64(nil, math.Inf(1))...),
		append(append([]byte{0x03, 0x01}, neighborBytesOf(Neighbor{ID: 2, D2: 1})...), AppendFloat64(nil, 0.5)...), // kind bit and a list
	} {
		if p, err := DecodeRhoPartial(bad, 7, RhoPartial{}); err == nil {
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

// fuzzEntries spells neighbour entries the way FuzzRhoPartialRoundTrip
// reads them from its input: a 4-byte ID, then D2.
func fuzzEntries(ns ...Neighbor) []byte {
	var buf []byte
	for _, e := range ns {
		buf = AppendFloat64(binary.LittleEndian.AppendUint32(buf, uint32(e.ID)), e.D2)
	}
	return buf
}

// FuzzRhoPartialRoundTrip: whatever the counts and neighbour list,
// decode(encode) returns them, the counts trimmed of zero ends; whatever the
// bytes, DecodeRhoPartial, DecodeRhoValue and ShipMask each either refuse
// them or have found exactly the bytes their encoder writes for what they
// decoded — they never panic, never accept two spellings of one record, and
// never trust a length the bytes do not hold. A rho partial whose header has
// bit 0 set (the retired float-sum kind) is always refused, and neither
// record's list ever names the point whose ID the key carries.
func FuzzRhoPartialRoundTrip(f *testing.F) {
	list := fuzzEntries(Neighbor{ID: 3, D2: 0}, Neighbor{ID: 9, D2: 2.5})
	f.Add(int32(0), 0, uint64(0), uint64(0), uint64(0), []byte{}, []byte{})
	f.Add(int32(7), 2, uint64(3), uint64(0), uint64(1)<<53, list, []byte{4, 3, 0, 1})
	f.Add(int32(-1), 9, math.Float64bits(0.5), uint64(0), math.Float64bits(math.NaN()), list[:12], []byte{0x80, 0x00})
	f.Add(int32(5), 1<<20-1, uint64(0), uint64(128), uint64(0), []byte{}, []byte{0x00, 0x00, 0x05})
	f.Add(int32(5), 3, uint64(1)<<60, uint64(1), uint64(2), []byte{}, []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(int32(1), 0, uint64(1), uint64(0), uint64(0), list, append([]byte{0x02, 0x02}, neighborBytesOf(Neighbor{ID: 3, D2: 0}, Neighbor{ID: 9, D2: 2.5})...))
	f.Add(int32(1), 0, uint64(1), uint64(0), uint64(0), list, append(make([]byte, 8), neighborBytesOf(Neighbor{ID: 3, D2: 0}, Neighbor{ID: 9, D2: 2.5})...))
	f.Add(int32(1), 0, uint64(0), uint64(0), uint64(0), []byte{}, []byte{0x05, 0x01})
	// Must-error seeds: the float-sum records the retired kind bit marked,
	// with and without a list.
	f.Add(int32(-1), 9, uint64(0), uint64(0), uint64(0), []byte{}, append([]byte{0x25}, AppendFloat64(nil, 0.5)...))
	f.Add(int32(5), 0, uint64(1)<<63, uint64(1), uint64(2), list, append([]byte{0x03}, make([]byte, 16)...))
	f.Add(int32(9), 0, uint64(0), uint64(0), uint64(0), []byte{}, []byte{0x01})
	// Neighbour IDs where their varint changes length, and records naming
	// the point itself or padding an ID.
	wide := []Neighbor{{ID: 127, D2: 0}, {ID: 128, D2: 0}, {ID: 16383, D2: 1}, {ID: 16384, D2: 1}, {ID: -1, D2: 2}}
	f.Add(int32(5), 1, uint64(2), uint64(0), uint64(1), fuzzEntries(wide...), EncodeRhoValue(RhoValue{Rho: 3, Near: wide}))
	f.Add(int32(16384), 0, uint64(1), uint64(1), uint64(0), fuzzEntries(wide[:3]...), AppendRhoPartial(nil, RhoPartial{First: 1, Vals: []float64{2}, Near: wide[:3]}))
	f.Add(int32(-1), 0, uint64(0), uint64(0), uint64(0), fuzzEntries(wide...), append(make([]byte, 8), neighborBytesOf(wide[4])...))
	f.Add(int32(127), 0, uint64(0), uint64(0), uint64(0), []byte{}, append([]byte{0x02, 0x01, 0xff, 0x00}, AppendFloat64(nil, 1)...))
	f.Fuzz(func(t *testing.T, id int32, first int, v0, v1, v2 uint64, near, raw []byte) {
		// A well-formed list from the fuzzer's entries: the ones a list can
		// hold, each ID once, in (d², ID) order.
		var ns []Neighbor
		for ; len(near) >= 12; near = near[12:] {
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
			p := RhoPartial{First: first, Near: ns}
			for _, v := range []uint64{v0, v1, v2} {
				p.Vals = append(p.Vals, float64(v%(maxCount+1)))
			}
			buf := AppendRhoPartial(nil, p)
			got, err := DecodeRhoPartial(buf, id, RhoPartial{})
			if err != nil {
				t.Fatalf("decode(encode(%+v)): %v", p, err)
			}
			// What comes back is p without its zero ends.
			full := make([]float64, 3)
			if len(got.Vals) > 0 {
				copy(full[got.First-first:], got.Vals)
			}
			for i, v := range p.Vals {
				if v != full[i] {
					t.Fatalf("decode(encode(%+v)) = %+v", p, got)
				}
			}
			if !slices.Equal(got.Near, ns) || string(AppendRhoPartial(nil, got)) != string(buf) {
				t.Fatalf("decode(encode(%+v)) = %+v", p, got)
			}
		}
		rv := RhoValue{Rho: math.Float64frombits(v0), Near: ns}
		if got, err := DecodeRhoValue(EncodeRhoValue(rv), id); err != nil ||
			math.Float64bits(got.Rho) != v0 || !slices.Equal(got.Near, ns) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", rv, got, err)
		}

		names := func(ns []Neighbor) bool { return slices.ContainsFunc(ns, func(e Neighbor) bool { return e.ID == id }) }
		if got, err := DecodeRhoPartial(raw, id, RhoPartial{}); err == nil {
			if len(raw) > 0 && raw[0]&1 != 0 {
				t.Fatalf("DecodeRhoPartial accepted %x, whose header has the kind bit set, as %+v", raw, got)
			}
			if again := AppendRhoPartial(nil, got); string(again) != string(raw) || names(got.Near) {
				t.Fatalf("DecodeRhoPartial accepted %x for id %d as %+v, which encodes as %x", raw, id, got, again)
			}
		}
		if got, err := DecodeRhoValue(raw, id); err == nil {
			if again := EncodeRhoValue(got); string(again) != string(raw) || names(got.Near) {
				t.Fatalf("DecodeRhoValue accepted %x for id %d as %+v, which encodes as %x", raw, id, got, again)
			}
		}
		if certified, mask, err := ShipMask(raw); err == nil {
			if certified != (len(raw) > 0) || certified && string(AppendShipMask(nil, mask)) != string(raw) {
				t.Fatalf("ShipMask accepted %x as certified %v mask %x", raw, certified, mask)
			}
		}
	})
}

// vectorListBytes is the binary body of a vector list: the count, then one
// point record per entry.
func vectorListBytes(n uint32, ps ...Point) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, n)
	for _, p := range ps {
		buf = AppendPoint(buf, p)
	}
	return buf
}

func TestVectorsCodec(t *testing.T) {
	vs := []Vector{{1, 2, 3}, {-4.5, 0, math.Inf(1)}}
	got, err := DecodeVectors(EncodeVectors(vs))
	if err != nil || len(got) != 2 || got[1][0] != -4.5 || got[1][2] != math.Inf(1) {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if got, err := DecodeVectors(EncodeVectors(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty list = %v, %v", got, err)
	}
	a, b := Point{ID: 0, Pos: Vector{1, 2}}, Point{ID: 1, Pos: Vector{3, 4}}
	for name, s := range map[string]string{
		"not base64":      "!!!",
		"newline":         EncodeVectors(vs) + "\n",
		"short header":    base64.StdEncoding.EncodeToString([]byte{1, 0}),
		"count past data": base64.StdEncoding.EncodeToString(vectorListBytes(math.MaxUint32)),
		"truncated":       base64.StdEncoding.EncodeToString(vectorListBytes(2, a)),
		"trailing byte":   base64.StdEncoding.EncodeToString(append(vectorListBytes(1, a), 0)),
		"out of order":    base64.StdEncoding.EncodeToString(vectorListBytes(2, b, a)),
		"ragged":          base64.StdEncoding.EncodeToString(vectorListBytes(2, a, Point{ID: 1, Pos: Vector{3}})),
	} {
		if got, err := DecodeVectors(s); err == nil {
			t.Errorf("%s: decoded to %v", name, got)
		}
	}
}

// FuzzVectorsRoundTrip holds the Conf vector-list codec to its contract on
// arbitrary bytes, both as the list's binary body and as the Conf string
// itself: an error, or a list that re-encodes to exactly the input; never a
// panic, and never an allocation the bytes do not back.
func FuzzVectorsRoundTrip(f *testing.F) {
	a, b := Point{ID: 0, Pos: Vector{1, 2}}, Point{ID: 1, Pos: Vector{3, 4}}
	for _, seed := range [][]byte{
		vectorListBytes(0),
		vectorListBytes(2, a, b),
		vectorListBytes(math.MaxUint32),
		append(vectorListBytes(1, a), 0),
		vectorListBytes(2, b, a),
		vectorListBytes(2, a, Point{ID: 1, Pos: Vector{3}}),
		[]byte(EncodeVectors([]Vector{{1, 2}})),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, s := range []string{base64.StdEncoding.EncodeToString(raw), string(raw)} {
			vs, err := DecodeVectors(s)
			if err != nil {
				continue
			}
			if again := EncodeVectors(vs); again != s {
				t.Fatalf("%q decoded to %v, which re-encodes to %q", s, vs, again)
			}
		}
	})
}
