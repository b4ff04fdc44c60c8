package knnjoin

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/points"
)

// Wire formats of the kNN-join jobs, following the repository's fixed
// little-endian layout convention (see internal/points/codec.go). Three
// record kinds flow through the pipeline:
//
//	input/bucket base record:  [1]{'b'} point
//	input query record:        [1]{'q'} point
//	bucket query record:       [1]{'Q'} [8]{g} point
//	partial top-k list:        [4]{qid} [8]{g} [4]{n} n×([4]{sid} [8]{d2})
//	merged result:             [4]{qid} [1]{status} [4]{n} n×([4]{sid} [8]{d2})
//
// The one-byte tag keeps the two join sides distinguishable inside a
// shared reducer group; the candidate map attaches each query's bucket
// guarantee radius g (lsh.Layouts.GuaranteeRadius) so the merge reducer
// can decide the exact-fallback question without re-hashing.

// Record tags.
const (
	tagQuery   = 'q' // driver input: query (R-side) point
	tagBase    = 'b' // driver input and bucket record: base (S-side) point
	tagBucketQ = 'Q' // bucket record: query annotated with its guarantee radius
)

// Result status bytes.
const (
	statusOK       = 'o' // bucket guarantee certifies the candidate top-k
	statusFallback = 'f' // query needs (or came from) the exact pass
)

// Neighbor is one join result entry: a base-side point ID and the exact
// squared distance to the query.
type Neighbor struct {
	ID int32
	D2 float64
}

// encodeTagged prefixes a point record with a side tag.
func encodeTagged(tag byte, p points.Point) []byte {
	return points.AppendPoint([]byte{tag}, p)
}

// encodeBucketQuery builds a 'Q' bucket record.
func encodeBucketQuery(g float64, p points.Point) []byte {
	buf := make([]byte, 9, 9+8+8*len(p.Pos))
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

// baseID reads the point ID of a tagged base record without decoding it.
// The record must have passed checkBase.
func baseID(rec []byte) int32 {
	return int32(binary.LittleEndian.Uint32(rec[1:]))
}

// checkBase reports an error unless rec is as long as the tagged point its
// header describes — what decoding it would check, without the decode.
func checkBase(rec []byte) error {
	if len(rec) < 9 || uint64(len(rec)-9) != 8*uint64(binary.LittleEndian.Uint32(rec[5:])) {
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

// partialList is one bucket's verified top-k of one query.
type partialList struct {
	QID     int32
	G       float64 // bucket guarantee radius (+Inf on the exact pass)
	Entries []Neighbor
}

func encodePartial(p partialList) []byte {
	buf := make([]byte, 0, 16+12*len(p.Entries))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.QID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.G))
	return appendNeighbors(buf, p.Entries)
}

func decodePartial(buf []byte) (partialList, error) {
	if len(buf) < 12 {
		return partialList{}, fmt.Errorf("knnjoin: short partial list (%d bytes)", len(buf))
	}
	p := partialList{
		QID: int32(binary.LittleEndian.Uint32(buf)),
		G:   math.Float64frombits(binary.LittleEndian.Uint64(buf[4:])),
	}
	ns, rest, err := decodeNeighbors(buf[12:])
	if err != nil {
		return partialList{}, err
	}
	if len(rest) != 0 {
		return partialList{}, fmt.Errorf("knnjoin: %d trailing bytes after partial list", len(rest))
	}
	p.Entries = ns
	return p, nil
}

// resultRec is the merge job's per-query output.
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
