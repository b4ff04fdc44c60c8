package knnjoin

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/points"
)

// Wire formats of the kNN-join jobs, built on the point record of
// internal/points/codec.go (uvarint ID, uvarint dim, float64 coordinates;
// fixed-width fields little-endian). These records flow through the
// pipeline:
//
//	input/bucket base record:  [1]{'b'} point
//	input query record:        [1]{'q'} point
//	bucket query record:       [1]{'Q'} [8]{g} point
//	result:                    [4]{qid} [1]{status} [4]{n} n×([4]{sid} [8]{d2})
//
// Only the first three are shuffled; a result is a reduce output, keyed by
// its query's ID (mapreduce.IDKey).
//
// and the candidates job's Conf carries one side table:
//
//	box table:  [4]{dim} [4]{n} n×([4]{len} key dim×[8]{lo} dim×[8]{hi})
//
// with keys in strictly ascending byte order. The one-byte tag keeps the
// two join sides distinguishable inside a shared reducer group; the
// candidate map attaches each query's bucket guarantee radius g
// (lsh.Layouts.GuaranteeRadius) so the bucket reducer can decide the
// exact-fallback question without re-hashing.

// Record tags.
const (
	tagQuery   = 'q' // driver input: query (R-side) point
	tagBase    = 'b' // driver input and bucket record: base (S-side) point
	tagBucketQ = 'Q' // bucket record: query annotated with its guarantee radius
)

// Result status bytes.
const (
	statusOK       = 'o' // the entries are the query's answer
	statusFallback = 'f' // query needs the exact pass
)

// Neighbor is one join result entry: a base-side point ID and the exact
// squared distance to the query.
type Neighbor = points.Neighbor

// encodeTagged prefixes a point record with a side tag.
func encodeTagged(tag byte, p points.Point) []byte {
	return points.AppendPoint([]byte{tag}, p)
}

// encodeBucketQuery builds a 'Q' bucket record.
func encodeBucketQuery(g float64, p points.Point) []byte {
	buf := make([]byte, 9, 9+10+8*len(p.Pos))
	buf[0] = tagBucketQ
	binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(g))
	return points.AppendPoint(buf, p)
}

// decodeBucketQuery parses a 'Q' record.
func decodeBucketQuery(buf []byte) (g float64, p points.Point, err error) {
	if len(buf) < 9 || buf[0] != tagBucketQ {
		return 0, points.Point{}, fmt.Errorf("knnjoin: malformed bucket query record (%d bytes)", len(buf))
	}
	g = math.Float64frombits(binary.LittleEndian.Uint64(buf[1:]))
	p, rest, err := points.DecodePoint(buf[9:])
	if err != nil {
		return 0, points.Point{}, err
	}
	if len(rest) != 0 {
		return 0, points.Point{}, fmt.Errorf("knnjoin: %d trailing bytes after bucket query", len(rest))
	}
	return g, p, nil
}

// baseID reads the point ID of a tagged base record without decoding its
// coordinates. The record must have passed checkBase.
func baseID(rec []byte) int32 {
	id, _, _, _ := points.DecodePointHeader(rec[1:])
	return id
}

// checkBase reports an error unless rec is as long as the tagged point its
// header describes — what decoding it would check, without the decode.
func checkBase(rec []byte) error {
	if len(rec) < 1 {
		return fmt.Errorf("knnjoin: empty base record")
	}
	if _, dim, body, err := points.DecodePointHeader(rec[1:]); err != nil || len(body) != 8*dim {
		return fmt.Errorf("knnjoin: malformed base record (%d bytes)", len(rec))
	}
	return nil
}

// appendNeighbors appends a length-prefixed neighbor list.
func appendNeighbors(buf []byte, ns []Neighbor) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ns)))
	for _, n := range ns {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.ID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.D2))
	}
	return buf
}

// decodeNeighbors parses a length-prefixed neighbor list from the front of
// buf and returns the rest.
func decodeNeighbors(buf []byte) ([]Neighbor, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("knnjoin: short neighbor list header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < 12*n {
		return nil, nil, fmt.Errorf("knnjoin: short neighbor list: want %d entries, have %d bytes", n, len(buf))
	}
	ns := make([]Neighbor, n)
	for i := range ns {
		ns[i].ID = int32(binary.LittleEndian.Uint32(buf))
		ns[i].D2 = math.Float64frombits(binary.LittleEndian.Uint64(buf[4:]))
		buf = buf[12:]
	}
	return ns, buf, nil
}

// resultRec is one query's answer from its bucket reducer: certified, or
// flagged for the exact pass with no entries.
type resultRec struct {
	QID      int32
	Fallback bool
	Entries  []Neighbor
}

func encodeResult(r resultRec) []byte {
	buf := make([]byte, 0, 9+12*len(r.Entries))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.QID))
	status := byte(statusOK)
	if r.Fallback {
		status = statusFallback
	}
	buf = append(buf, status)
	return appendNeighbors(buf, r.Entries)
}

func decodeResult(buf []byte) (resultRec, error) {
	if len(buf) < 5 {
		return resultRec{}, fmt.Errorf("knnjoin: short result record (%d bytes)", len(buf))
	}
	r := resultRec{QID: int32(binary.LittleEndian.Uint32(buf))}
	switch buf[4] {
	case statusOK:
	case statusFallback:
		r.Fallback = true
	default:
		return resultRec{}, fmt.Errorf("knnjoin: unknown result status %q", buf[4])
	}
	ns, rest, err := decodeNeighbors(buf[5:])
	if err != nil {
		return resultRec{}, err
	}
	if len(rest) != 0 {
		return resultRec{}, fmt.Errorf("knnjoin: %d trailing bytes after result", len(rest))
	}
	r.Entries = ns
	return r, nil
}

// encodeBoxes serializes a box table, keys in ascending byte order.
func encodeBoxes(t *boxTable) string {
	keys := make([]string, 0, len(t.boxes))
	for key := range t.boxes {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	buf := make([]byte, 0, 8+len(keys)*(12+16*t.dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, key := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		for _, v := range t.boxes[key] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return string(buf)
}

// decodeBoxes parses a box table. It rejects anything encodeBoxes cannot
// have produced — a short header, an empty or truncated key, a ragged box, a
// key that repeats or breaks the ascending order, trailing bytes — so a table
// it accepts re-encodes to the same bytes.
func decodeBoxes(s string) (*boxTable, error) {
	b := []byte(s)
	if len(b) < 8 {
		return nil, fmt.Errorf("knnjoin: short box table (%d bytes)", len(b))
	}
	dim, n := uint64(binary.LittleEndian.Uint32(b)), uint64(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	side := 16 * dim // bytes of one box
	// An entry takes at least a length, one key byte and a box.
	if n > uint64(len(b))/(5+side) {
		return nil, fmt.Errorf("knnjoin: %d boxes of dim %d do not fit in %d bytes", n, dim, len(b))
	}
	t := &boxTable{dim: int(dim), boxes: make(map[string][]float64, n)}
	vals := make([]float64, 2*dim*n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("knnjoin: box table entry %d: truncated key length", i)
		}
		kl := uint64(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if kl == 0 || kl > uint64(len(b)) {
			return nil, fmt.Errorf("knnjoin: box table entry %d: key of %d bytes, %d left", i, kl, len(b))
		}
		key := string(b[:kl])
		b = b[kl:]
		if i > 0 && key <= prev {
			return nil, fmt.Errorf("knnjoin: box table entry %d: key %x does not follow %x", i, key, prev)
		}
		if uint64(len(b)) < side {
			return nil, fmt.Errorf("knnjoin: box table entry %d: ragged box (%d bytes, want %d)", i, len(b), side)
		}
		box := vals[2*dim*i : 2*dim*(i+1)]
		for j := range box {
			box[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		b = b[side:]
		t.boxes[key], prev = box, key
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("knnjoin: %d trailing bytes after box table", len(b))
	}
	return t, nil
}
