package points

import (
	"encoding/binary"
	"fmt"
	"math"
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

// MustDecodePoint is DecodePoint for trusted intra-job data.
func MustDecodePoint(buf []byte) Point {
	p, rest, err := DecodePoint(buf)
	if err != nil {
		panic(err)
	}
	if len(rest) != 0 {
		panic(fmt.Sprintf("points: %d trailing bytes after point", len(rest)))
	}
	return p
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

// MustDecodeRhoPoint is DecodeRhoPoint for trusted intra-job data.
func MustDecodeRhoPoint(buf []byte) RhoPoint {
	rp, rest, err := DecodeRhoPoint(buf)
	if err != nil {
		panic(err)
	}
	if len(rest) != 0 {
		panic(fmt.Sprintf("points: %d trailing bytes after rho point", len(rest)))
	}
	return rp
}

// RhoValue is a partial or final density result keyed by point ID.
type RhoValue struct {
	ID  int32
	Rho float64
}

// EncodeRhoValue returns the wire form of rv.
func EncodeRhoValue(rv RhoValue) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(rv.ID))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(rv.Rho))
}

// DecodeRhoValue parses a RhoValue.
func DecodeRhoValue(buf []byte) (RhoValue, error) {
	if len(buf) != 12 {
		return RhoValue{}, fmt.Errorf("points: rho value is %d bytes, want 12", len(buf))
	}
	return RhoValue{
		ID:  int32(binary.LittleEndian.Uint32(buf)),
		Rho: math.Float64frombits(binary.LittleEndian.Uint64(buf[4:])),
	}, nil
}

// RhoPartial is one reducer's share of a point's local densities in
// pair-once LSH-DDP (DESIGN.md "Pair ownership"): Vals[i] is what the pairs
// that reducer evaluated add to the point's density under layout First+i.
// With the cutoff kernel the values are neighbour counts — whole numbers —
// and travel as varints; Gaussian weight sums travel as float64 bits.
//
// The wire form is the ID (uint32 LE), then First and the kind in one
// uvarint (First<<1 | gaussian), then the values back to back to the end of
// the record, without the zero values at either end: a record has exactly
// one spelling, and an all-zero share is the 5-byte record of First 0.
type RhoPartial struct {
	ID       int32
	Gaussian bool
	First    int
	Vals     []float64
}

// maxCount is the largest neighbour count a RhoPartial carries: every whole
// number up to it is a float64, so counts add exactly in any order.
const maxCount = 1 << 53

// maxLayouts bounds RhoPartial.First; no run has anywhere near as many.
const maxLayouts = 1 << 20

// AppendRhoPartial appends the wire form of p to buf. It panics on a cutoff
// value that is not a whole number in [0, 2⁵³]: only a bug produces one.
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
	head := uint64(first) << 1
	if p.Gaussian {
		head |= 1
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ID))
	buf = binary.AppendUvarint(buf, head)
	for _, v := range vals {
		if p.Gaussian {
			buf = AppendFloat64(buf, v)
			continue
		}
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
	if !ok || head>>1 >= maxLayouts {
		return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: bad layout header", p.ID)
	}
	p.Gaussian, p.First = head&1 == 1, int(head>>1)
	if p.Gaussian {
		if len(rest)%8 != 0 {
			return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: %d bytes of float sums", p.ID, len(rest))
		}
		p.Vals = make([]float64, 0, len(rest)/8)
		for ; len(rest) > 0; rest = rest[8:] {
			p.Vals = append(p.Vals, DecodeFloat64(rest))
		}
	} else {
		p.Vals = make([]float64, 0, len(rest))
		for len(rest) > 0 {
			var c uint64
			if c, rest, ok = minimalUvarint(rest); !ok || c > maxCount {
				return RhoPartial{}, fmt.Errorf("points: rho partial for id %d: bad count %d", p.ID, len(p.Vals))
			}
			p.Vals = append(p.Vals, float64(c))
		}
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
