package points

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary codecs for the record types that flow through MapReduce jobs.
// Records use a fixed little-endian layout rather than encoding/gob: job
// values are encoded once per emit and the shuffle-byte counters should
// reflect honest data sizes, not gob's per-stream type dictionaries.

// AppendFloat64 appends the 8-byte little-endian IEEE-754 form of v to buf.
// It is the shared primitive every record codec in the repository builds
// float fields from, so round-trips are bit-exact by construction.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// EncodeFloat64 returns the 8-byte wire form of v.
func EncodeFloat64(v float64) []byte { return AppendFloat64(nil, v) }

// DecodeFloat64 reads the float64 at the front of buf (which must hold at
// least 8 bytes).
func DecodeFloat64(buf []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf))
}

// AppendPoint appends the wire form of p (id, dim, coordinates) to buf.
func AppendPoint(buf []byte, p Point) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Pos)))
	for _, x := range p.Pos {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// EncodePoint returns the wire form of p.
func EncodePoint(p Point) []byte { return AppendPoint(nil, p) }

// DecodePoint parses a point from the front of buf and returns the rest.
func DecodePoint(buf []byte) (Point, []byte, error) {
	if len(buf) < 8 {
		return Point{}, nil, fmt.Errorf("points: short point header: %d bytes", len(buf))
	}
	id := int32(binary.LittleEndian.Uint32(buf))
	dim := int(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if len(buf) < 8*dim {
		return Point{}, nil, fmt.Errorf("points: short point body: want %d floats, have %d bytes", dim, len(buf))
	}
	pos := make(Vector, dim)
	for i := 0; i < dim; i++ {
		pos[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return Point{ID: id, Pos: pos}, buf[8*dim:], nil
}

// EncodeVectors serializes a vector list for a job's Conf (EDDPC's pivots,
// K-means' centroids): base64 over a little-endian uint32 count followed by
// one point record per vector, its ID the vector's index.
func EncodeVectors(vs []Vector) string {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(vs)))
	for i, v := range vs {
		buf = AppendPoint(buf, Point{ID: int32(i), Pos: v})
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// DecodeVectors parses EncodeVectors' output. It rejects anything
// EncodeVectors cannot have produced — non-canonical base64, a count the
// remaining bytes cannot hold, a record out of index order, a ragged list,
// trailing bytes — so a list it accepts re-encodes to the same string.
func DecodeVectors(s string) ([]Vector, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("points: bad vector-list encoding: %w", err)
	}
	if base64.StdEncoding.EncodeToString(raw) != s {
		return nil, fmt.Errorf("points: non-canonical vector-list encoding")
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("points: short vector list (%d bytes)", len(raw))
	}
	n := uint64(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	// A record takes at least its 8-byte header.
	if n > uint64(len(raw))/8 {
		return nil, fmt.Errorf("points: %d vectors do not fit in %d bytes", n, len(raw))
	}
	vs := make([]Vector, n)
	for i := range vs {
		p, rest, err := DecodePoint(raw)
		if err != nil {
			return nil, err
		}
		if p.ID != int32(i) {
			return nil, fmt.Errorf("points: vector %d carries index %d", i, p.ID)
		}
		if i > 0 && len(p.Pos) != len(vs[0]) {
			return nil, fmt.Errorf("points: vector %d has dim %d, vector 0 has %d", i, len(p.Pos), len(vs[0]))
		}
		vs[i], raw = p.Pos, rest
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("points: %d trailing bytes after vector list", len(raw))
	}
	return vs, nil
}

// RhoPoint is a point annotated with its (approximate) local density —
// the record shuffled into the δ jobs of every distributed algorithm here.
type RhoPoint struct {
	Point
	Rho float64
}

// AppendRhoPoint appends the wire form of rp to buf.
func AppendRhoPoint(buf []byte, rp RhoPoint) []byte {
	buf = AppendPoint(buf, rp.Point)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(rp.Rho))
}

// EncodeRhoPoint returns the wire form of rp.
func EncodeRhoPoint(rp RhoPoint) []byte { return AppendRhoPoint(nil, rp) }

// DecodeRhoPoint parses a RhoPoint from the front of buf and returns the rest.
func DecodeRhoPoint(buf []byte) (RhoPoint, []byte, error) {
	p, rest, err := DecodePoint(buf)
	if err != nil {
		return RhoPoint{}, nil, err
	}
	if len(rest) < 8 {
		return RhoPoint{}, nil, fmt.Errorf("points: short rho tail: %d bytes", len(rest))
	}
	rho := math.Float64frombits(binary.LittleEndian.Uint64(rest))
	return RhoPoint{Point: p, Rho: rho}, rest[8:], nil
}

// LSH-DDP's ρ-job and δ-job input records (DESIGN.md "Pair ownership") may
// carry a layout mask after their point — a Point on the ρ job, a RhoPoint
// on the δ job. A row without a mask travels to its bucket in every layout;
// a row with one travels only to the layouts l whose bit l%8 of mask byte
// l/8 is set: on the ρ job the layouts where its run owns a pair, on the δ
// job, where a mask marks a row whose δ̂ the ρ pass certified ("δ̂ from the
// ρ pass"), those where an open row needs it as a candidate. The mask is
// trimmed of zero bytes at its end but keeps one, so an empty mask — a row
// no bucket needs — is one 0x00.

// AppendShipMask appends a row's mask to its record.
func AppendShipMask(buf, mask []byte) []byte {
	for len(mask) > 0 && mask[len(mask)-1] == 0 {
		mask = mask[:len(mask)-1]
	}
	if len(mask) == 0 {
		return append(buf, 0)
	}
	return append(buf, mask...)
}

// ShipMask parses what follows the point in a ρ- or δ-job input record:
// nothing for a row that goes to every layout, else its mask — nil when it
// is empty. The mask aliases tail.
func ShipMask(tail []byte) (masked bool, mask []byte, err error) {
	switch {
	case len(tail) == 0:
		return false, nil, nil
	case len(tail) == 1 && tail[0] == 0:
		return true, nil, nil
	case tail[len(tail)-1] == 0:
		return false, nil, fmt.Errorf("points: layout mask %x is not trimmed", tail)
	}
	return true, tail, nil
}

// Neighbor is one entry of a point's nearest-neighbour list in pair-once
// LSH-DDP (DESIGN.md "δ̂ from the ρ pass"): another point's ID and its exact
// squared distance. On the wire it is the ID (uint32 LE) and the float64
// bits of D2, 12 bytes; a list is its entries in ascending (D2, ID) order,
// each ID once and never the point's own, every D2 finite and not negative.
type Neighbor struct {
	ID int32
	D2 float64
}

const neighborBytes = 12

func appendNeighbors(buf []byte, ns []Neighbor) []byte {
	for _, e := range ns {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ID))
		buf = AppendFloat64(buf, e.D2)
	}
	return buf
}

// decodeNeighbors parses the n entries at the front of buf as the list of
// point self, refusing any list appendNeighbors would not have written for
// a well-formed one.
func decodeNeighbors(buf []byte, n int, self int32) ([]Neighbor, error) {
	if n > len(buf)/neighborBytes {
		return nil, fmt.Errorf("points: neighbour list of id %d: %d entries in %d bytes", self, n, len(buf))
	}
	ns := make([]Neighbor, n)
	ids := make([]int32, n)
	for i := range ns {
		e := Neighbor{ID: int32(binary.LittleEndian.Uint32(buf)), D2: DecodeFloat64(buf[4:])}
		buf = buf[neighborBytes:]
		if !(e.D2 >= 0 && e.D2 < math.Inf(1)) || math.Signbit(e.D2) || e.ID == self {
			return nil, fmt.Errorf("points: neighbour list of id %d: entry %d is (%d, %v)", self, i, e.ID, e.D2)
		}
		if i > 0 && (e.D2 < ns[i-1].D2 || e.D2 == ns[i-1].D2 && e.ID <= ns[i-1].ID) {
			return nil, fmt.Errorf("points: neighbour list of id %d is not in (d², id) order", self)
		}
		ns[i], ids[i] = e, e.ID
	}
	slices.Sort(ids)
	for i := 1; i < n; i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("points: neighbour list of id %d holds id %d twice", self, ids[i])
		}
	}
	return ns, nil
}

// RhoValue is a partial or final density result keyed by point ID. LSH-DDP's
// aggregation attaches the point's neighbour list (Near); the wire form is
// the ID (uint32 LE), the density's float64 bits and the list's entries.
type RhoValue struct {
	ID   int32
	Rho  float64
	Near []Neighbor
}

// EncodeRhoValue returns the wire form of rv.
func EncodeRhoValue(rv RhoValue) []byte {
	buf := make([]byte, 0, 12+neighborBytes*len(rv.Near))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rv.ID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rv.Rho))
	return appendNeighbors(buf, rv.Near)
}

// DecodeRhoValue parses a RhoValue.
func DecodeRhoValue(buf []byte) (RhoValue, error) {
	if len(buf) < 12 || (len(buf)-12)%neighborBytes != 0 {
		return RhoValue{}, fmt.Errorf("points: rho value is %d bytes, want 12 plus 12 per neighbour", len(buf))
	}
	rv := RhoValue{
		ID:  int32(binary.LittleEndian.Uint32(buf)),
		Rho: math.Float64frombits(binary.LittleEndian.Uint64(buf[4:])),
	}
	if n := (len(buf) - 12) / neighborBytes; n > 0 {
		var err error
		if rv.Near, err = decodeNeighbors(buf[12:], n, rv.ID); err != nil {
			return RhoValue{}, err
		}
	}
	return rv, nil
}

// RhoPartial is one reducer's share of a point's local densities in
// pair-once LSH-DDP (DESIGN.md "Pair ownership"): Vals[i] is what the pairs
// that reducer evaluated add to the point's density under layout First+i.
// The values are neighbour counts — whole numbers — and travel as varints.
// Near is the point's nearest partners among those pairs (DESIGN.md "δ̂
// from the ρ pass").
//
// The wire form is the ID (uint32 LE), then First and whether a list
// follows in one uvarint (First<<2 | near<<1; bit 0 is always clear and a
// record with it set is refused), then — when near — the list's length as a
// uvarint and its entries, then the counts back to back to the end of the
// record, without the zeros at either end: a record has exactly one
// spelling, and an all-zero share without a list is the 5-byte record of
// First 0.
type RhoPartial struct {
	ID    int32
	First int
	Vals  []float64
	Near  []Neighbor
}

// maxCount is the largest neighbour count a RhoPartial carries: every whole
// number up to it is a float64, so counts add exactly in any order.
const maxCount = 1 << 53

// maxLayouts bounds RhoPartial.First; no run has anywhere near as many.
const maxLayouts = 1 << 20

// AppendRhoPartial appends the wire form of p to buf. It panics on a value
// that is not a whole number in [0, 2⁵³]: only a bug produces one.
func AppendRhoPartial(buf []byte, p RhoPartial) []byte {
	first, vals := p.First, p.Vals
	for len(vals) > 0 && vals[0] == 0 {
		first, vals = first+1, vals[1:]
	}
	for len(vals) > 0 && vals[len(vals)-1] == 0 {
		vals = vals[:len(vals)-1]
	}
	if len(vals) == 0 {
		first = 0
	}
	head := uint64(first) << 2
	if len(p.Near) > 0 {
		head |= 2
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ID))
	buf = binary.AppendUvarint(buf, head)
	if len(p.Near) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(p.Near)))
		buf = appendNeighbors(buf, p.Near)
	}
	for _, v := range vals {
		if !(v >= 0 && v <= maxCount) || v != math.Trunc(v) {
			panic(fmt.Sprintf("points: rho partial count %v is not a whole number in [0, 2^53]", v))
		}
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// DecodeRhoPartial parses a RhoPartial, rejecting every byte string
// AppendRhoPartial cannot have produced: re-encoding what it accepts
// returns the same bytes.
func DecodeRhoPartial(buf []byte) (RhoPartial, error) {
	if len(buf) < 5 {
		return RhoPartial{}, fmt.Errorf("points: rho partial is %d bytes, want at least 5", len(buf))
	}
	p := RhoPartial{ID: int32(binary.LittleEndian.Uint32(buf))}
	head, rest, ok := minimalUvarint(buf[4:])
	if !ok || head>>2 >= maxLayouts || head&1 != 0 {
		return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: bad layout header", p.ID)
	}
	p.First = int(head >> 2)
	if head&2 != 0 {
		var n uint64
		if n, rest, ok = minimalUvarint(rest); !ok || n == 0 || n > uint64(len(rest)/neighborBytes) {
			return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: bad neighbour list length", p.ID)
		}
		var err error
		if p.Near, err = decodeNeighbors(rest, int(n), p.ID); err != nil {
			return RhoPartial{}, err
		}
		rest = rest[neighborBytes*int(n):]
	}
	p.Vals = make([]float64, 0, len(rest))
	for len(rest) > 0 {
		var c uint64
		if c, rest, ok = minimalUvarint(rest); !ok || c > maxCount {
			return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: bad count %d", p.ID, len(p.Vals))
		}
		p.Vals = append(p.Vals, float64(c))
	}
	if n := len(p.Vals); n == 0 && p.First != 0 || n > 0 && (p.Vals[0] == 0 || p.Vals[n-1] == 0) {
		return RhoPartial{}, fmt.Errorf("points: rho partial for id %d is not trimmed of zero values", p.ID)
	}
	return p, nil
}

// minimalUvarint reads one uvarint from the front of b and returns the
// rest; ok is false when b is empty, truncated, overflows 64 bits, or pads
// the value with a redundant trailing zero byte.
func minimalUvarint(b []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, false
	}
	return v, b[n:], true
}

// DeltaValue is a partial or final δ result: the candidate minimum distance
// to a denser point and the identity of that upslope point (-1 when the
// point looked like the absolute density peak in its partition, in which
// case Delta is +Inf until rectified).
type DeltaValue struct {
	ID      int32
	Delta   float64
	Upslope int32
}

// EncodeDeltaValue returns the wire form of dv.
func EncodeDeltaValue(dv DeltaValue) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(dv.ID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(dv.Delta))
	return binary.LittleEndian.AppendUint32(buf, uint32(dv.Upslope))
}

// DecodeDeltaValue parses a DeltaValue.
func DecodeDeltaValue(buf []byte) (DeltaValue, error) {
	if len(buf) != 16 {
		return DeltaValue{}, fmt.Errorf("points: delta value is %d bytes, want 16", len(buf))
	}
	return DeltaValue{
		ID:      int32(binary.LittleEndian.Uint32(buf)),
		Delta:   math.Float64frombits(binary.LittleEndian.Uint64(buf[4:])),
		Upslope: int32(binary.LittleEndian.Uint32(buf[12:])),
	}, nil
}
