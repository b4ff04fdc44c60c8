package mapreduce

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The record frame shared by the rpcmr streaming shuffle transport and the
// model artifact (internal/model). One frame is
//
//	uint32 keyLen | key bytes | uint32 valueLen | value bytes
//
// in little-endian. Keeping a single codec means a shuffle chunk and a model
// section are the same layout. DecodeFrames treats a length
// prefix as a claim and checks it against the buffer it was handed;
// ReadClaimed, for prefixes read off a stream, allocates only as fast as the
// stream delivers.

// AppendFrame appends the frame encoding of p to buf and returns the
// extended slice. It is the allocation-free building block chunked
// transports use to pack records into a bounded buffer.
func AppendFrame(buf []byte, p Pair) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p.Key)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, p.Key...)
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p.Value)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, p.Value...)
	return buf
}

// DecodeFrames parses every complete frame in buf, appending the decoded
// pairs to dst. Values are sub-sliced from buf without copying — the
// caller must hand over ownership of buf (the returned pairs alias it).
// Keys are materialized as strings. A truncated trailing frame is an
// error: chunk producers only emit whole frames.
func DecodeFrames(dst []Pair, buf []byte) ([]Pair, error) {
	for off := 0; off < len(buf); {
		if off+4 > len(buf) {
			return dst, fmt.Errorf("mapreduce: truncated frame header at offset %d", off)
		}
		keyLen := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if keyLen < 0 || off+keyLen+4 > len(buf) {
			return dst, fmt.Errorf("mapreduce: truncated frame key at offset %d", off)
		}
		key := string(buf[off : off+keyLen])
		off += keyLen
		valLen := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if valLen < 0 || off+valLen > len(buf) {
			return dst, fmt.Errorf("mapreduce: truncated frame value at offset %d", off)
		}
		var val []byte
		if valLen > 0 {
			val = buf[off : off+valLen : off+valLen]
		}
		off += valLen
		dst = append(dst, Pair{Key: key, Value: val})
	}
	return dst, nil
}

// frameAllocStep is the most a length prefix makes ReadClaimed allocate
// ahead of the bytes: past it the buffer doubles only as data arrives, so a
// corrupt or hostile 4 GiB length costs 1 MiB and an error, not 4 GiB.
const frameAllocStep = 1 << 20

// ReadClaimed returns the next n bytes of r, where n is a length prefix read
// off the same stream — a claim, not a promise. The bytes land in buf's
// storage when it is large enough. Up to frameAllocStep — every shuffle
// chunk in practice — that is one exact allocation and one ReadFull; past it
// allocation grows only as fast as the stream delivers.
func ReadClaimed(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n <= frameAllocStep {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		_, err := io.ReadFull(r, buf[:n])
		return buf[:n], err
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), frameAllocStep))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
