package mapreduce

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The record frame shared by the spill run files, the rpcmr streaming
// shuffle transport and the DFS part files (internal/dfsio). One frame is
//
//	uint32 keyLen | key bytes | uint32 valueLen | value bytes
//
// in little-endian. Keeping a single codec means bytes written by a map
// task's spill path and bytes crossing the wire in a shuffle fetch are the
// same layout, so wire-level accounting and disk accounting agree. Both
// decoders treat a length prefix as a claim: DecodeFrames checks it against
// the buffer it was handed, FrameReader allocates for it only as fast as the
// stream delivers (FuzzFrameRoundTrip holds them to one behaviour).

// FrameOverhead is the fixed framing cost per record: the two uint32
// length prefixes.
const FrameOverhead = 8

// FrameBytes returns the framed size of one pair.
func FrameBytes(p Pair) int64 { return FrameOverhead + pairBytes(p) }

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

// FrameWriter frames pairs onto a stream through an internal buffer.
type FrameWriter struct {
	w *bufio.Writer
	n int64
}

// NewFrameWriter wraps w. Call Flush before relying on the bytes having
// reached w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 1<<16)
	}
	return &FrameWriter{w: bw}
}

// WritePair frames one pair.
func (fw *FrameWriter) WritePair(p Pair) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p.Key)))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fw.w.WriteString(p.Key); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p.Value)))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fw.w.Write(p.Value); err != nil {
		return err
	}
	fw.n += FrameBytes(p)
	return nil
}

// Bytes returns the framed bytes written so far.
func (fw *FrameWriter) Bytes() int64 { return fw.n }

// Flush drains the internal buffer to the underlying writer.
func (fw *FrameWriter) Flush() error { return fw.w.Flush() }

// FrameReader decodes frames from a stream. Key bytes land in a grow-only
// scratch buffer reused across records (the key becomes a string anyway);
// each value is copied into a fresh slice because callers retain values.
type FrameReader struct {
	r   *bufio.Reader
	key []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &FrameReader{r: br}
}

// Next returns the next pair; ok=false on a clean EOF at a frame
// boundary. EOF inside a frame is an error.
func (fr *FrameReader) Next() (Pair, bool, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Pair{}, false, nil
		}
		return Pair{}, false, fmt.Errorf("mapreduce: truncated frame header: %w", err)
	}
	var err error
	if fr.key, err = fr.read(fr.key, int(binary.LittleEndian.Uint32(hdr[:]))); err != nil {
		return Pair{}, false, fmt.Errorf("mapreduce: truncated frame key: %w", err)
	}
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return Pair{}, false, fmt.Errorf("mapreduce: truncated frame value length: %w", err)
	}
	var val []byte
	if valLen := int(binary.LittleEndian.Uint32(hdr[:])); valLen > 0 {
		if val, err = fr.read(nil, valLen); err != nil {
			return Pair{}, false, fmt.Errorf("mapreduce: truncated frame value: %w", err)
		}
	}
	return Pair{Key: string(fr.key), Value: val}, true, nil
}

// frameAllocStep is the most a length prefix makes the reader allocate
// ahead of the bytes: past it the buffer doubles only as data arrives, so a
// corrupt or hostile 4 GiB length costs 1 MiB and an error, not 4 GiB.
const frameAllocStep = 1 << 20

// read returns the next n bytes of the stream, in buf's storage when it is
// large enough. Up to frameAllocStep — every record in practice — that is one
// exact allocation and one ReadFull, the run iterator's hot path.
func (fr *FrameReader) read(buf []byte, n int) ([]byte, error) {
	if n <= frameAllocStep {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		_, err := io.ReadFull(fr.r, buf[:n])
		return buf[:n], err
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), frameAllocStep))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(fr.r, buf[len(buf)-step:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
