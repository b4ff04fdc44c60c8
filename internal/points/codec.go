package points

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary codecs for the record types that flow through MapReduce jobs.
// Records are hand-rolled rather than encoding/gob: job values are encoded
// once per emit and the shuffle-byte counters should reflect honest data
// sizes, not gob's per-stream type dictionaries. A record says each fact
// once, in the bytes it needs:
//
//	point:         uvarint{id} uvarint{dim} dim×[8]{coordinate}
//	rho point:     point [8]{rho}
//	neighbour:     uvarint{id} [8]{d²}
//	rho value:     [8]{rho} neighbour…
//	rho partial:   uvarint{first<<2 | near<<1} [uvarint{len} neighbour…] uvarint{count}…
//	delta value:   [8]{delta} [4]{upslope}
//
// Floats are little-endian IEEE-754 bits and varints are minimal, so every
// record has one spelling. The per-point results — rho values and
// partials, delta values — are keyed by their point's ID
// (mapreduce.IDKey), so they do not carry it.

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

// AppendPoint appends the wire form of p to buf: its ID (as a uint32) and
// its dim as minimal uvarints, then the coordinates.
func AppendPoint(buf []byte, p Point) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(p.ID)))
	buf = binary.AppendUvarint(buf, uint64(len(p.Pos)))
	for _, x := range p.Pos {
		buf = AppendFloat64(buf, x)
	}
	return buf
}

// EncodePoint returns the wire form of p.
func EncodePoint(p Point) []byte { return AppendPoint(nil, p) }

// DecodePoint parses a point from the front of buf and returns the rest.
func DecodePoint(buf []byte) (Point, []byte, error) {
	id, dim, body, err := DecodePointHeader(buf)
	if err != nil {
		return Point{}, nil, err
	}
	pos := make(Vector, dim)
	for i := range pos {
		pos[i] = DecodeFloat64(body[8*i:])
	}
	return Point{ID: id, Pos: pos}, body[8*dim:], nil
}

// DecodePointHeader parses the header of the point record at the front of
// buf and returns its ID, its dim and the bytes after the header, which
// hold at least the dim coordinates. It refuses a header AppendPoint cannot
// have written — a truncated or padded varint, an ID past a uint32 — and a
// dim those bytes cannot hold, so a caller never allocates for more.
func DecodePointHeader(buf []byte) (id int32, dim int, body []byte, err error) {
	v, d, n := pointHeader(buf)
	if n == 0 || v > math.MaxUint32 {
		return 0, 0, nil, fmt.Errorf("points: bad point header %x", buf[:min(len(buf), 10)])
	}
	if body = buf[n:]; d > uint64(len(body)/8) {
		return 0, 0, nil, fmt.Errorf("points: short point body: want %d floats, have %d bytes", d, len(body))
	}
	return int32(uint32(v)), int(d), body, nil
}

// pointHeader reads the two header varints of the point record at the
// front of buf and returns them and their length n, 0 when they are not
// minimal uvarints; the caller checks their ranges. Every decoder reads one
// header per record, so the common headers — an ID of up to three bytes, a
// one-byte dim — take one step each, both varints in one call; IDs arrive
// in runs of one length, so the steps' tests predict well. A last varint
// byte must lie in 1 … 127 (b-1 < 0x7f): 0 would pad it.
func pointHeader(buf []byte) (id, dim uint64, n int) {
	if len(buf) >= 4 {
		b0, b1, b2, b3 := uint64(buf[0]), uint64(buf[1]), uint64(buf[2]), uint64(buf[3])
		switch {
		case b0 < 0x80 && b1 < 0x80:
			return b0, b1, 2
		case b0 >= 0x80 && b1-1 < 0x7f && b2 < 0x80:
			return b0&0x7f | b1<<7, b2, 3
		case b0 >= 0x80 && b1 >= 0x80 && b2-1 < 0x7f && b3 < 0x80:
			return b0&0x7f | (b1&0x7f)<<7 | b2<<14, b3, 4
		}
	}
	id, rest, ok := minimalUvarint(buf)
	if ok {
		dim, rest, ok = minimalUvarint(rest)
	}
	if !ok {
		return 0, 0, 0
	}
	return id, dim, len(buf) - len(rest)
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
	// A record takes at least its 2-byte header.
	if n > uint64(len(raw))/2 {
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
// LSH-DDP (DESIGN.md "δ̂ from the ρ pass") or in the kNN-join's results:
// another point's ID and its exact squared distance. On the ρ pass's wire it
// is the ID (as a uint32) as a minimal uvarint and the float64 bits of D2:
// the top-k merges and δ̂ read D2 exactly. A list is its entries in
// ascending (D2, ID) order, each ID once and never the point's own, every D2
// finite and not negative.
type Neighbor struct {
	ID int32
	D2 float64
}

// minNeighborBytes is the shortest entry: a one-byte ID and D2.
const minNeighborBytes = 9

func appendNeighbors(buf []byte, ns []Neighbor) []byte {
	for _, e := range ns {
		buf = binary.AppendUvarint(buf, uint64(uint32(e.ID)))
		buf = AppendFloat64(buf, e.D2)
	}
	return buf
}

// decodeNeighbors parses n entries — or, when n is negative, every entry up
// to the end of buf — as the list of point self into dst's storage and
// returns the rest, refusing any list appendNeighbors would not have
// written for a well-formed one.
func decodeNeighbors(dst []Neighbor, buf []byte, n int, self int32) ([]Neighbor, []byte, error) {
	most := len(buf) / minNeighborBytes
	if n > most {
		return nil, nil, fmt.Errorf("points: neighbour list of id %d: %d entries in %d bytes", self, n, len(buf))
	}
	size := n
	if n < 0 {
		size = most
	}
	ns := slices.Grow(dst[:0], size)
	for len(ns) != n && (n >= 0 || len(buf) > 0) {
		id, rest, ok := minimalUvarint(buf)
		if !ok || id > math.MaxUint32 || len(rest) < 8 {
			return nil, nil, fmt.Errorf("points: neighbour list of id %d: entry %d is malformed", self, len(ns))
		}
		e := Neighbor{ID: int32(uint32(id)), D2: DecodeFloat64(rest)}
		buf = rest[8:]
		if !(e.D2 >= 0 && e.D2 < math.Inf(1)) || math.Signbit(e.D2) || e.ID == self {
			return nil, nil, fmt.Errorf("points: neighbour list of id %d: entry %d is (%d, %v)", self, len(ns), e.ID, e.D2)
		}
		if i := len(ns) - 1; i >= 0 && (e.D2 < ns[i].D2 || e.D2 == ns[i].D2 && e.ID <= ns[i].ID) {
			return nil, nil, fmt.Errorf("points: neighbour list of id %d is not in (d², id) order", self)
		}
		ns = append(ns, e)
	}
	// An ID twice: a pairwise scan of a short list, a sorted copy of a long one.
	dup := func(id int32) error { return fmt.Errorf("points: neighbour list of id %d holds id %d twice", self, id) }
	if len(ns) <= 16 {
		for i := range ns {
			for _, e := range ns[:i] {
				if e.ID == ns[i].ID {
					return nil, nil, dup(e.ID)
				}
			}
		}
		return ns, buf, nil
	}
	ids := make([]int32, len(ns))
	for i, e := range ns {
		ids[i] = e.ID
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, nil, dup(ids[i])
		}
	}
	return ns, buf, nil
}

// RhoValue is a partial or final density result. Its record is keyed by
// the point's ID (mapreduce.IDKey), which the value does not repeat.
// LSH-DDP's aggregation attaches the point's neighbour list (Near); the
// wire form is the density's float64 bits and the list's entries.
type RhoValue struct {
	Rho  float64
	Near []Neighbor
}

// EncodeRhoValue returns the wire form of rv.
func EncodeRhoValue(rv RhoValue) []byte {
	buf := make([]byte, 0, 8+(5+8)*len(rv.Near))
	buf = AppendFloat64(buf, rv.Rho)
	return appendNeighbors(buf, rv.Near)
}

// DecodeRhoValue parses the RhoValue of point id, whose list must not name
// it.
func DecodeRhoValue(buf []byte, id int32) (RhoValue, error) {
	if len(buf) < 8 {
		return RhoValue{}, fmt.Errorf("points: rho value of id %d is %d bytes, want at least 8", id, len(buf))
	}
	rv := RhoValue{Rho: DecodeFloat64(buf)}
	if len(buf) > 8 {
		var err error
		if rv.Near, _, err = decodeNeighbors(nil, buf[8:], -1, id); err != nil {
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
// from the ρ pass"). Its record is keyed by the point's ID
// (mapreduce.IDKey), which the value does not repeat.
//
// The wire form is First and whether a list follows in one uvarint
// (First<<2 | near<<1; bit 0 is always clear and a record with it set is
// refused), then — when near — the list's length as a uvarint and its
// entries, then the counts back to back to the end of the record, without
// the zeros at either end: a record has exactly one spelling, and an
// all-zero share without a list is the 1-byte record of First 0.
type RhoPartial struct {
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

// DecodeRhoPartial parses the RhoPartial of point id into dst's storage —
// its Vals and Near, which the result reuses — rejecting every byte string
// AppendRhoPartial cannot have produced and every list naming id:
// re-encoding what it accepts returns the same bytes.
func DecodeRhoPartial(buf []byte, id int32, dst RhoPartial) (RhoPartial, error) {
	p := RhoPartial{Vals: dst.Vals[:0]}
	head, rest, ok := minimalUvarint(buf)
	if !ok || head>>2 >= maxLayouts || head&1 != 0 {
		return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: bad layout header", id)
	}
	p.First = int(head >> 2)
	if head&2 != 0 {
		var n uint64
		if n, rest, ok = minimalUvarint(rest); !ok || n == 0 || n > uint64(len(rest)/minNeighborBytes) {
			return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: bad neighbour list length", id)
		}
		var err error
		if p.Near, rest, err = decodeNeighbors(dst.Near, rest, int(n), id); err != nil {
			return RhoPartial{}, err
		}
	}
	for len(rest) > 0 {
		var c uint64
		if c, rest, ok = minimalUvarint(rest); !ok || c > maxCount {
			return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: bad count %d", id, len(p.Vals))
		}
		p.Vals = append(p.Vals, float64(c))
	}
	if n := len(p.Vals); n == 0 && p.First != 0 || n > 0 && (p.Vals[0] == 0 || p.Vals[n-1] == 0) {
		return RhoPartial{}, fmt.Errorf("points: rho partial for id %d is not trimmed of zero values", id)
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
// case Delta is +Inf until rectified). Its record is keyed by the point's
// ID (mapreduce.IDKey), which the value does not repeat: the wire form is
// Delta's float64 bits and Upslope (uint32 LE), 12 bytes.
type DeltaValue struct {
	Delta   float64
	Upslope int32
}

// EncodeDeltaValue returns the wire form of dv.
func EncodeDeltaValue(dv DeltaValue) []byte {
	buf := AppendFloat64(make([]byte, 0, 12), dv.Delta)
	return binary.LittleEndian.AppendUint32(buf, uint32(dv.Upslope))
}

// DecodeDeltaValue parses a DeltaValue.
func DecodeDeltaValue(buf []byte) (DeltaValue, error) {
	if len(buf) != 12 {
		return DeltaValue{}, fmt.Errorf("points: delta value is %d bytes, want 12", len(buf))
	}
	return DeltaValue{
		Delta:   DecodeFloat64(buf),
		Upslope: int32(binary.LittleEndian.Uint32(buf[8:])),
	}, nil
}
