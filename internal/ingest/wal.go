// Package ingest grows a served model online: points stream into a
// WAL-backed in-memory delta segment, get assigned immediately against the
// base engine plus the delta, and fold their density mass into served rho
// estimates. A background compactor periodically merges base + delta into
// a new versioned model artifact and swaps it in without stopping queries.
//
// On disk an ingest directory holds three kinds of files:
//
//	CURRENT            which artifact + WAL segments are live (JSON, atomic)
//	model-%06d.ddpm    compacted base artifacts (the standard model format)
//	wal-%06d.log       write-ahead log segments of the delta
//
// See DESIGN.md "Streaming ingest & compaction" for the protocol.
package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WAL record layout, little-endian:
//
//	u32 payload length | u32 CRC32-C(payload) | payload
//
// payload:
//
//	u32 count | u32 dim | u64 first global ID | count*dim float64 bits
//
// One record per acked ingest batch. The CRC (same Castagnoli polynomial
// as the model artifact sections) detects torn tails and bit rot; a record
// that fails its CRC but extends to end-of-file of the final segment is a
// torn write and is truncated away, anywhere else it is corruption and
// replay fails loudly rather than silently dropping acked points.

const walHeaderLen = 8

// maxWALRecord bounds one record so a corrupted length field cannot make
// replay allocate absurdly (1024 points × 1024 dims × 8 bytes is far above
// any admissible batch).
const maxWALRecord = 64 << 20

var walCRC = crc32.MakeTable(crc32.Castagnoli)

func walPath(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", seq))
}

// wal is one open (active) WAL segment. Not safe for concurrent use; the
// store serializes writers.
type wal struct {
	dir   string
	seq   int64
	f     *os.File
	fsync bool
	buf   []byte
}

// openWAL opens segment seq of dir for appending, creating it if needed.
func openWAL(dir string, seq int64, fsync bool) (*wal, error) {
	f, err := os.OpenFile(walPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{dir: dir, seq: seq, f: f, fsync: fsync}, nil
}

// append writes one batch record and (optionally) syncs it. The record is
// durable in the OS page cache on return — it survives a killed process;
// surviving a host crash needs fsync (the ingest.wal.fsync knob).
func (w *wal) append(firstID int64, dim int, pts [][]float64) (int, error) {
	payload := 8 + 8 + len(pts)*dim*8
	if payload > maxWALRecord {
		return 0, fmt.Errorf("ingest: batch of %d×%d points exceeds the WAL record bound", len(pts), dim)
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(payload))
	w.buf = append(w.buf, 0, 0, 0, 0) // CRC backfilled below
	w.buf = appendWALPayload(w.buf, firstID, dim, pts)
	binary.LittleEndian.PutUint32(w.buf[4:], crc32.Checksum(w.buf[walHeaderLen:], walCRC))
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, err
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return 0, err
		}
	}
	return len(w.buf), nil
}

// appendWALPayload appends one record's payload: count, dim, first ID and
// the coordinates row by row.
func appendWALPayload(buf []byte, firstID int64, dim int, pts [][]float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pts)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(firstID))
	for _, p := range pts {
		for _, x := range p {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	return buf
}

// roll closes the active segment and starts seq+1. Called by the
// compactor at the snapshot boundary: everything at or before the rolled
// segment is covered by the artifact the compaction is about to write.
func (w *wal) roll() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(walPath(w.dir, w.seq+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f, w.seq = f, w.seq+1
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// walRecord is one decoded WAL record.
type walRecord struct {
	firstID int64
	dim     int
	coords  []float64 // count×dim, row-major
}

func (r walRecord) count() int { return len(r.coords) / r.dim }

// walSegments lists the WAL segment sequence numbers present in dir, in
// ascending order.
func walSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// replayWAL decodes every record of segments from..max in order and hands
// each to fn. A torn tail on the final segment is truncated in place (a
// crashed writer's half-record was never acked); corruption anywhere else
// aborts the replay so acked data is never silently dropped. Returns the
// highest segment seen (== from when none exist yet) and the total live
// bytes replayed.
func replayWAL(dir string, from int64, fn func(walRecord) error) (last int64, liveBytes int64, err error) {
	seqs, err := walSegments(dir)
	if err != nil {
		return 0, 0, err
	}
	last = from
	var live []int64
	for _, seq := range seqs {
		if seq < from {
			continue // pre-compaction segment awaiting GC
		}
		live = append(live, seq)
		if seq > last {
			last = seq
		}
	}
	for i, seq := range live {
		if want := from + int64(i); seq != want {
			return 0, 0, fmt.Errorf("ingest: WAL segment %06d missing (found %06d)", want, seq)
		}
	}
	for i, seq := range live {
		n, err := replaySegment(walPath(dir, seq), i == len(live)-1, fn)
		if err != nil {
			return 0, 0, err
		}
		liveBytes += n
	}
	return last, liveBytes, nil
}

// replaySegment decodes one segment file. final marks the last live
// segment — the only place a torn tail is legal.
func replaySegment(path string, final bool, fn func(walRecord) error) (int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	off := 0
	for off < len(buf) {
		rest := len(buf) - off
		tornAt := -1
		if rest < walHeaderLen {
			tornAt = off
		} else {
			n := int(binary.LittleEndian.Uint32(buf[off:]))
			crc := binary.LittleEndian.Uint32(buf[off+4:])
			switch {
			case n > maxWALRecord || walHeaderLen+n > rest:
				// The claimed payload runs past EOF: a torn write.
				tornAt = off
			case crc32.Checksum(buf[off+walHeaderLen:off+walHeaderLen+n], walCRC) != crc:
				if walHeaderLen+n == rest && final {
					tornAt = off // CRC of the very last record: torn write
				} else {
					return 0, fmt.Errorf("ingest: %s: record at offset %d fails CRC (corruption, not a torn tail) — refusing to replay", path, off)
				}
			}
			if tornAt < 0 {
				rec, err := decodeWALRecord(buf[off+walHeaderLen : off+walHeaderLen+n])
				if err != nil {
					return 0, fmt.Errorf("ingest: %s: record at offset %d: %v", path, off, err)
				}
				if err := fn(rec); err != nil {
					return 0, err
				}
				off += walHeaderLen + n
				continue
			}
		}
		if !final {
			return 0, fmt.Errorf("ingest: %s: truncated record at offset %d in a non-final WAL segment", path, tornAt)
		}
		if err := os.Truncate(path, int64(tornAt)); err != nil {
			return 0, fmt.Errorf("ingest: truncating torn WAL tail: %v", err)
		}
		return int64(tornAt), nil
	}
	return int64(len(buf)), nil
}

func decodeWALRecord(payload []byte) (walRecord, error) {
	if len(payload) < 16 {
		return walRecord{}, fmt.Errorf("payload too short (%d bytes)", len(payload))
	}
	count := int(binary.LittleEndian.Uint32(payload[0:]))
	dim := int(binary.LittleEndian.Uint32(payload[4:]))
	firstID := int64(binary.LittleEndian.Uint64(payload[8:]))
	// count and dim are each up to 2³²−1, so their product can wrap: divide
	// the coordinate count by them instead of multiplying.
	n := (len(payload) - 16) / 8
	if dim <= 0 || count <= 0 || (len(payload)-16)%8 != 0 || n%dim != 0 || n/dim != count {
		return walRecord{}, fmt.Errorf("inconsistent record shape (count=%d dim=%d bytes=%d)", count, dim, len(payload))
	}
	coords := make([]float64, n)
	for i := range coords {
		coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[16+i*8:]))
	}
	return walRecord{firstID: firstID, dim: dim, coords: coords}, nil
}
