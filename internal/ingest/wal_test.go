package ingest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"testing"

	"repro/internal/chaos"
)

func appendRecords(t *testing.T, dir string, seq int64, firstID int64, batches [][][]float64) {
	t.Helper()
	w, err := openWAL(dir, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	id := firstID
	for _, pts := range batches {
		if _, err := w.append(id, len(pts[0]), pts); err != nil {
			t.Fatal(err)
		}
		id += int64(len(pts))
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func collectRecords(t *testing.T, dir string, from int64) []walRecord {
	t.Helper()
	var recs []walRecord
	if _, _, err := replayWAL(dir, from, func(r walRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestWALRoundtrip(t *testing.T) {
	dir := t.TempDir()
	batches := [][][]float64{
		{{1, 2}, {3, 4}},
		{{5, 6}},
		{{7, 8}, {9, 10}, {11, 12}},
	}
	appendRecords(t, dir, 1, 100, batches)
	recs := collectRecords(t, dir, 1)
	if len(recs) != len(batches) {
		t.Fatalf("replayed %d records, wrote %d", len(recs), len(batches))
	}
	wantID := int64(100)
	for i, rec := range recs {
		if rec.firstID != wantID {
			t.Errorf("record %d: firstID %d, want %d", i, rec.firstID, wantID)
		}
		if rec.count() != len(batches[i]) || rec.dim != 2 {
			t.Errorf("record %d: %d×%d, want %d×2", i, rec.count(), rec.dim, len(batches[i]))
		}
		for j, p := range batches[i] {
			for d, x := range p {
				if rec.coords[j*2+d] != x {
					t.Errorf("record %d point %d dim %d: %v != %v", i, j, d, rec.coords[j*2+d], x)
				}
			}
		}
		wantID += int64(rec.count())
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir, 1, 0, [][][]float64{{{1, 2}}, {{3, 4}}})
	// Simulate a torn write: half a record at the tail of the segment.
	f, err := os.OpenFile(walPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x30, 0, 0, 0, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs := collectRecords(t, dir, 1)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(recs))
	}
	// The tear must be gone from disk so appends continue cleanly.
	recs = collectRecords(t, dir, 1)
	if len(recs) != 2 {
		t.Fatalf("second replay saw %d records, want 2", len(recs))
	}
	appendRecords(t, dir, 1, 2, [][][]float64{{{5, 6}}})
	if recs = collectRecords(t, dir, 1); len(recs) != 3 {
		t.Fatalf("after post-tear append: %d records, want 3", len(recs))
	}
}

func TestWALCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir, 1, 0, [][][]float64{{{1, 2}}, {{3, 4}}, {{5, 6}}})
	// Flip one bit inside the first record's payload: that is storage
	// corruption (valid records follow), not a torn tail, and replay must
	// refuse rather than silently drop acked points.
	buf, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := chaos.New(42)
	c.FlipBit(buf[walHeaderLen+16 : walHeaderLen+17]) // first coord of record 0
	if err := os.WriteFile(walPath(dir, 1), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayWAL(dir, 1, func(walRecord) error { return nil }); err == nil {
		t.Fatal("replay of a mid-file corrupted WAL succeeded; want an error")
	}
}

func TestWALMissingSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	appendRecords(t, dir, 1, 0, [][][]float64{{{1, 2}}})
	appendRecords(t, dir, 3, 5, [][][]float64{{{3, 4}}})
	if _, _, err := replayWAL(dir, 1, func(walRecord) error { return nil }); err == nil {
		t.Fatal("replay across a missing WAL segment succeeded; want an error")
	}
}

// FuzzWALRecord feeds arbitrary payloads to the record decoder — what a WAL
// segment holds after bit rot the payload CRC happens to match, or after a
// writer with a different idea of the layout. It must return an error or a
// record that re-encodes to exactly the payload, and never panic; in
// particular a count × dim product that overflows must not reach make.
func FuzzWALRecord(f *testing.F) {
	f.Add(appendWALPayload(nil, 7, 2, [][]float64{{1, 2}, {3, 4}}))
	f.Add(appendWALPayload(nil, -1, 1, [][]float64{{math.NaN()}}))
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	// count = 2³¹, dim = 2³⁰: count·dim·8 wraps to 0, matching a bare header.
	overflow := binary.LittleEndian.AppendUint32(nil, 1<<31)
	overflow = binary.LittleEndian.AppendUint32(overflow, 1<<30)
	f.Add(binary.LittleEndian.AppendUint64(overflow, 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		rows := make([][]float64, rec.count())
		for i := range rows {
			rows[i] = rec.coords[i*rec.dim : (i+1)*rec.dim]
		}
		if enc := appendWALPayload(nil, rec.firstID, rec.dim, rows); !bytes.Equal(enc, payload) {
			t.Fatalf("decodeWALRecord(%x) = %d×%d from %d, re-encodes to %x", payload, rec.count(), rec.dim, rec.firstID, enc)
		}
	})
}

// FuzzWALSegment writes arbitrary bytes as a segment file and replays it as
// the final segment and as an earlier one. Replay must return an error, or
// records that re-encode — header and payload — to exactly the first N
// bytes it reports live. As the final segment the file is then truncated to
// N (a torn tail goes); as an earlier segment it is never touched.
func FuzzWALSegment(f *testing.F) {
	var good []byte
	for i, pts := range [][][]float64{{{1, 2}, {3, 4}}, {{5, 6}}} {
		good = appendWALFrame(good, int64(10+2*i), 2, pts)
	}
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), 0x30, 0, 0, 0, 0xde, 0xad, 0xbe)) // torn tail
	flipped := append([]byte(nil), good...)
	flipped[len(good)-(walHeaderLen+16+2*8)+4] ^= 0x01 // the last record's CRC
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := walPath(t.TempDir(), 1)
		for _, final := range []bool{false, true} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var enc []byte
			n, err := replaySegment(path, final, func(rec walRecord) error {
				rows := make([][]float64, rec.count())
				for i := range rows {
					rows[i] = rec.coords[i*rec.dim : (i+1)*rec.dim]
				}
				enc = appendWALFrame(enc, rec.firstID, rec.dim, rows)
				return nil
			})
			onDisk, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if err != nil || !final {
				if !bytes.Equal(onDisk, data) {
					t.Fatalf("final=%v, err=%v: segment rewritten from %d to %d bytes", final, err, len(data), len(onDisk))
				}
				if err != nil {
					continue
				}
			}
			if n < 0 || n > int64(len(data)) || !bytes.Equal(enc, data[:n]) {
				t.Fatalf("final=%v: replay kept %d of %d bytes, records re-encode to %d", final, n, len(data), len(enc))
			}
			if final && !bytes.Equal(onDisk, data[:n]) {
				t.Fatalf("final segment is %d bytes after replay kept %d", len(onDisk), n)
			}
		}
	})
}

// appendWALFrame appends one whole WAL record — header and payload — as
// wal.append writes it.
func appendWALFrame(buf []byte, firstID int64, dim int, pts [][]float64) []byte {
	payload := appendWALPayload(nil, firstID, dim, pts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, walCRC))
	return append(buf, payload...)
}
