// Package model defines the versioned cluster model artifact that bridges
// offline training and online serving: everything a query server needs to
// assign new points to the clusters an LSH-DDP (or Basic-DDP) run produced,
// frozen into one self-describing blob.
//
// An artifact carries the labeled dataset in flat SoA form (row i is point
// ID i, matching the repository's dense-ID invariant), the per-point
// densities ρ̂, the selected peak IDs, per-cluster halo border densities
// ρ̂_b, the cutoff d_c, and the LSH layout parameters (seed, M, π, w). The
// layouts themselves are never serialized: like the distributed workers,
// the serving side regenerates them deterministically from the parameters
// (lsh.NewLayouts is seeded), so train-time and serve-time bucketing agree
// by construction.
//
// On disk an artifact is a fixed header (magic, format version, CRC32-C of
// the body, body length) followed by the body: named sections in the same
// length-prefixed frame layout the streaming shuffle transport uses
// (mapreduce.AppendFrame / DecodeFrames). The artifact is written as a
// stream: one section table gives the body length up front, the header and
// each section go through one buffered writer straight from the model's
// arrays, and the CRC is folded in as the body passes and patched into the
// header at the end — WriteFile never holds an encoded copy of the model,
// and Encode fills one exact-size buffer through the same path. Readers
// verify the checksum before touching the body and reject unknown format
// versions, so a truncated or bit-flipped artifact surfaces as an error,
// never as a silently wrong model. Unknown section names are skipped for
// forward compatibility.
package model

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// magic identifies a cluster model artifact; Version is the format version
// this package reads and writes.
const (
	magic   = "DDPMODL1"
	Version = 1
)

// headerLen is magic(8) + version(u32) + crc32c(u32) + bodyLen(u64).
const headerLen = 8 + 4 + 4 + 8

// castagnoli is the CRC32-C table, the same polynomial the ingest WAL
// checksums its records with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Params are the LSH layout parameters of the training run. M == 0 means
// the model was exported from a run without LSH (Basic-DDP or the exact
// reference); such a model serves through the exact-scan path only.
type Params struct {
	Seed int64
	M    int
	Pi   int
	W    float64
}

// Model is one deserialized cluster model artifact.
type Model struct {
	// Name labels the training dataset (diagnostic only).
	Name string
	// Dim is the point dimensionality.
	Dim int
	// Dc is the cutoff distance of the training run.
	Dc float64
	// LSH holds the layout parameters to regenerate the hash groups.
	LSH Params
	// Data is the labeled dataset, row-major n×Dim; row i is point ID i.
	Data []float64
	// Rho is the per-point (approximate) density, indexed like Data rows.
	Rho []float64
	// Labels is the per-point cluster label, an index into Peaks.
	Labels []int32
	// Peaks holds the selected peak point IDs; cluster c's peak is row
	// Peaks[c].
	Peaks []int32
	// Border is the per-cluster halo border density ρ̂_b (len(Peaks)
	// entries). All-zero when the training run skipped halo detection, in
	// which case no served point is flagged halo.
	Border []float64

	// Data32 is never set. Harness-only; deleted with ROADMAP item 1(a).
	Data32 []float32

	// Optional q8 codes of Data for the bandwidth-lean scan path
	// (serve.scan.precision q8). They may be empty — the serving engine
	// derives them from Data — and old readers skip their sections. Data
	// stays the source of truth: q8 scans only filter rows before their
	// exact distance on it, so the codes need only satisfy the points
	// package's quantization contract.

	// Q8Codes is the 8-bit per-dimension affine quantization of Data
	// (same layout, one byte per coordinate), or empty. When present,
	// Q8Min/Q8Scale hold the per-dimension code parameters (Dim entries
	// each; see points.Q8Params).
	Q8Codes []uint8
	Q8Min   []float64
	Q8Scale []float64

	// RowIDs maps local row index → global point ID for a shard sub-model
	// exported by the fleet partitioner (internal/fleet). Empty means the
	// identity mapping: row i IS point ID i, the single-node invariant.
	// When present it must be strictly ascending, so local row order and
	// global ID order agree and the lowest-row-index NN tie rule gives the
	// same winner whether applied to local or global indices. Peaks and
	// Nearest-style fields inside the artifact stay LOCAL row indices; the
	// serving layer translates through GlobalID when answering.
	RowIDs []int32
}

// Q8Params returns the quantization parameters as the points package type.
func (m *Model) Q8Params() points.Q8Params {
	return points.Q8Params{Min: m.Q8Min, Scale: m.Q8Scale}
}

// BuildCompact populates the q8 codes from Data when the data is finitely
// quantizable (non-finite coordinates or an overflowing per-dimension
// spread leave Q8Codes empty).
func (m *Model) BuildCompact() {
	codes, par, ok := points.QuantizeQ8(m.Data, m.Dim)
	if !ok {
		m.Q8Codes, m.Q8Min, m.Q8Scale = nil, nil, nil
		return
	}
	m.Q8Codes, m.Q8Min, m.Q8Scale = codes, par.Min, par.Scale
}

// N returns the number of stored points.
func (m *Model) N() int { return len(m.Labels) }

// GlobalID returns the global point ID of local row i: RowIDs[i] for a
// shard sub-model, or i itself for a full model.
func (m *Model) GlobalID(i int) int32 {
	if len(m.RowIDs) != 0 {
		return m.RowIDs[i]
	}
	return int32(i)
}

// NumClusters returns the number of clusters (selected peaks).
func (m *Model) NumClusters() int { return len(m.Peaks) }

// Row returns row i of the stored dataset, aliasing Data.
func (m *Model) Row(i int) points.Vector {
	return m.Data[i*m.Dim : (i+1)*m.Dim]
}

// Layouts regenerates the LSH layouts from the stored parameters, or nil
// when the model carries none (LSH.M == 0).
func (m *Model) Layouts() *lsh.Layouts {
	if m.LSH.M <= 0 {
		return nil
	}
	return lsh.NewLayouts(m.Dim, m.LSH.M, m.LSH.Pi, m.LSH.W, m.LSH.Seed)
}

// Validate checks the internal consistency of the model.
func (m *Model) Validate() error {
	n := m.N()
	if n == 0 {
		return fmt.Errorf("model: no points")
	}
	if m.Dim <= 0 {
		return fmt.Errorf("model: non-positive dim %d", m.Dim)
	}
	if len(m.Data) != n*m.Dim {
		return fmt.Errorf("model: %d coordinates for %d points of dim %d", len(m.Data), n, m.Dim)
	}
	if len(m.Rho) != n {
		return fmt.Errorf("model: %d densities for %d points", len(m.Rho), n)
	}
	if len(m.Peaks) == 0 {
		return fmt.Errorf("model: no peaks")
	}
	if len(m.Border) != len(m.Peaks) {
		return fmt.Errorf("model: %d border densities for %d clusters", len(m.Border), len(m.Peaks))
	}
	for c, p := range m.Peaks {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("model: peak %d has point ID %d, want [0,%d)", c, p, n)
		}
	}
	for i, l := range m.Labels {
		if l < 0 || int(l) >= len(m.Peaks) {
			return fmt.Errorf("model: point %d has label %d, want [0,%d)", i, l, len(m.Peaks))
		}
	}
	if !(m.Dc > 0) || math.IsInf(m.Dc, 0) {
		return fmt.Errorf("model: d_c %v is not finite and positive", m.Dc)
	}
	if m.LSH.M > 0 {
		if err := lsh.CheckLayouts(m.Dim, m.LSH.M, m.LSH.Pi, m.LSH.W); err != nil {
			return fmt.Errorf("model: LSH params: %w", err)
		}
	}
	if len(m.Q8Codes) != 0 {
		if len(m.Q8Codes) != n*m.Dim {
			return fmt.Errorf("model: %d q8 codes for %d points of dim %d", len(m.Q8Codes), n, m.Dim)
		}
		if !m.Q8Params().Valid(m.Dim) {
			return fmt.Errorf("model: q8 quantization parameters are invalid for dim %d", m.Dim)
		}
	} else if len(m.Q8Min) != 0 || len(m.Q8Scale) != 0 {
		return fmt.Errorf("model: q8 parameters without q8 codes")
	}
	if len(m.RowIDs) != 0 {
		if len(m.RowIDs) != n {
			return fmt.Errorf("model: %d row IDs for %d points", len(m.RowIDs), n)
		}
		for i, id := range m.RowIDs {
			if id < 0 || (i > 0 && id <= m.RowIDs[i-1]) {
				return fmt.Errorf("model: row IDs must be non-negative and strictly ascending (row %d has ID %d)", i, id)
			}
		}
	}
	return nil
}

// Section names of the framed body. The compact sections (q8codes,
// q8params) are optional additions of the same format version: readers
// that predate them fall through the unknown-section skip, and the body CRC
// covers them like everything else. An older writer's float32 mirror
// ("points32") is skipped as unknown.
const (
	secMeta     = "meta"
	secPoints   = "points"
	secRho      = "rho"
	secLabels   = "labels"
	secPeaks    = "peaks"
	secBorder   = "border"
	secQ8Codes  = "q8codes"
	secQ8Params = "q8params" // Dim mins then Dim scales, f64 each
	secRowIDs   = "rowids"   // local row → global point ID (shard sub-models)
)

// section is one framed body section: its name, its payload size in bytes
// and the writer that streams exactly that payload.
type section struct {
	name string
	size int
	put  func(*bufio.Writer) error
}

// sections validates the model and lists its body sections in write order.
// The one table drives both passes: the size pass sums the frames, the
// write pass streams each payload straight from the model's arrays.
func (m *Model) sections() ([]section, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	secs := []section{
		bytesSection(secMeta, m.encodeMeta()),
		elemSection(secPoints, m.Data, 8, points.AppendFloat64),
		elemSection(secRho, m.Rho, 8, points.AppendFloat64),
		elemSection(secLabels, m.Labels, 4, appendInt32),
		elemSection(secPeaks, m.Peaks, 4, appendInt32),
		elemSection(secBorder, m.Border, 8, points.AppendFloat64),
	}
	if len(m.Q8Codes) != 0 {
		params := append(append([]float64(nil), m.Q8Min...), m.Q8Scale...)
		secs = append(secs, bytesSection(secQ8Codes, m.Q8Codes), elemSection(secQ8Params, params, 8, points.AppendFloat64))
	}
	if len(m.RowIDs) != 0 {
		secs = append(secs, elemSection(secRowIDs, m.RowIDs, 4, appendInt32))
	}
	return secs, nil
}

func bytesSection(name string, b []byte) section {
	return section{name, len(b), func(w *bufio.Writer) error { _, err := w.Write(b); return err }}
}

// elemSection is the section of xs as consecutive size-byte elements,
// each appended by put.
func elemSection[T any](name string, xs []T, size int, put func([]byte, T) []byte) section {
	return section{name, size * len(xs), func(w *bufio.Writer) error { return putElems(w, xs, size, put) }}
}

func appendInt32(b []byte, x int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(x)) }

// putElems streams xs to w as consecutive size-byte elements, appending
// them with put straight into w's free buffer space.
func putElems[T any](w *bufio.Writer, xs []T, size int, put func([]byte, T) []byte) error {
	for len(xs) > 0 {
		if w.Available() < size {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		b := w.AvailableBuffer()
		k := min(len(xs), cap(b)/size)
		for _, x := range xs[:k] {
			b = put(b, x)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// artifactLen is the encoded size of an artifact with these sections:
// the header plus one frame (u32 name length, name, u32 payload length,
// payload) per section.
func artifactLen(secs []section) int {
	n := headerLen
	for _, s := range secs {
		n += 4 + len(s.name) + 4 + s.size
	}
	return n
}

// crcWriter passes writes through to w and folds every byte after the
// first skip into a CRC32-C.
type crcWriter struct {
	w    io.Writer
	skip int
	crc  uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	k := min(c.skip, len(p))
	c.skip -= k
	c.crc = crc32.Update(c.crc, castagnoli, p[k:])
	return c.w.Write(p)
}

// writeArtifact streams the artifact to dst through one bufio.Writer: the
// header (magic, version, a zero CRC placeholder, body length), then every
// section's frame. It returns the body's CRC32-C, which the caller patches
// into header bytes [12:16) — the bytes are then exactly the artifact.
func writeArtifact(dst io.Writer, secs []section) (uint32, error) {
	cw := &crcWriter{w: dst, skip: headerLen}
	w := bufio.NewWriterSize(cw, 64<<10)
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(artifactLen(secs)-headerLen))
	w.Write(hdr[:]) // a bufio error is sticky: Flush reports it
	for _, s := range secs {
		w.Write(binary.LittleEndian.AppendUint32(hdr[:0], uint32(len(s.name))))
		w.WriteString(s.name)
		w.Write(binary.LittleEndian.AppendUint32(hdr[:0], uint32(s.size)))
		if err := s.put(w); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return cw.crc, nil
}

// Encode serializes the model into one exact-size buffer: header (magic,
// version, CRC32-C, body length) followed by the framed sections. It is
// the same stream WriteFile writes.
func (m *Model) Encode() ([]byte, error) {
	secs, err := m.sections()
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, artifactLen(secs)))
	crc, err := writeArtifact(buf, secs)
	if err != nil {
		return nil, err
	}
	out := buf.Bytes()
	binary.LittleEndian.PutUint32(out[12:], crc)
	return out, nil
}

// Decode parses and verifies an encoded model: magic, format version, and
// body checksum are checked before any section is interpreted. A known
// section that appears twice, or whose length is not a whole number of its
// elements, is an error.
func Decode(data []byte) (*Model, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("model: artifact is %d bytes, shorter than the %d-byte header", len(data), headerLen)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("model: bad magic %q (not a cluster model artifact)", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("model: unsupported format version %d (this build reads version %d)", v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(data[12:])
	bodyLen := binary.LittleEndian.Uint64(data[16:])
	body := data[headerLen:]
	if uint64(len(body)) != bodyLen {
		return nil, fmt.Errorf("model: body is %d bytes, header says %d (truncated artifact)", len(body), bodyLen)
	}
	if got := crc32.Checksum(body, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("model: checksum mismatch (stored %08x, computed %08x): artifact is corrupt", wantCRC, got)
	}
	frames, err := mapreduce.DecodeFrames(nil, body)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	m := &Model{}
	seen := make(map[string]bool)
	for _, f := range frames {
		var err error
		switch f.Key {
		case secMeta:
			err = m.decodeMeta(f.Value)
		case secPoints:
			m.Data, err = decodeFloats(f)
		case secRho:
			m.Rho, err = decodeFloats(f)
		case secLabels:
			m.Labels, err = decodeInt32s(f)
		case secPeaks:
			m.Peaks, err = decodeInt32s(f)
		case secBorder:
			m.Border, err = decodeFloats(f)
		case secQ8Codes:
			m.Q8Codes = append([]uint8(nil), f.Value...)
		case secQ8Params:
			var params []float64
			if params, err = decodeFloats(f); err == nil && len(params)%2 != 0 {
				err = fmt.Errorf("model: q8params section holds %d values, want an even count", len(params))
			}
			half := len(params) / 2
			m.Q8Min, m.Q8Scale = params[:half], params[half:]
		case secRowIDs:
			m.RowIDs, err = decodeInt32s(f)
		default:
			continue // unknown section: written by a newer minor revision, skip
		}
		if err != nil {
			return nil, err
		}
		if seen[f.Key] {
			return nil, fmt.Errorf("model: section %q appears twice", f.Key)
		}
		seen[f.Key] = true
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// meta section: u32 dim | f64 dc | i64 seed | u32 m | u32 pi | f64 w | name.
func (m *Model) encodeMeta() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(m.Dim))
	buf = points.AppendFloat64(buf, m.Dc)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.LSH.Seed))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.LSH.M))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.LSH.Pi))
	buf = points.AppendFloat64(buf, m.LSH.W)
	return append(buf, m.Name...)
}

func (m *Model) decodeMeta(v []byte) error {
	if len(v) < 36 {
		return fmt.Errorf("model: meta section is %d bytes, want at least 36", len(v))
	}
	m.Dim = int(binary.LittleEndian.Uint32(v))
	m.Dc = points.DecodeFloat64(v[4:])
	m.LSH.Seed = int64(binary.LittleEndian.Uint64(v[12:]))
	m.LSH.M = int(binary.LittleEndian.Uint32(v[20:]))
	m.LSH.Pi = int(binary.LittleEndian.Uint32(v[24:]))
	m.LSH.W = points.DecodeFloat64(v[28:])
	m.Name = string(v[36:])
	return nil
}

// decodeSection decodes section f as consecutive size-byte elements read by
// at, or errors when its length is not a whole number of them.
func decodeSection[T any](f mapreduce.Pair, size int, at func([]byte) T) ([]T, error) {
	if len(f.Value)%size != 0 {
		return nil, fmt.Errorf("model: %s section is %d bytes, not a whole number of %d-byte elements", f.Key, len(f.Value), size)
	}
	xs := make([]T, len(f.Value)/size)
	for i := range xs {
		xs[i] = at(f.Value[size*i:])
	}
	return xs, nil
}

func decodeFloats(f mapreduce.Pair) ([]float64, error) {
	return decodeSection(f, 8, points.DecodeFloat64)
}

func decodeInt32s(f mapreduce.Pair) ([]int32, error) {
	return decodeSection(f, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) })
}

// WriteFile writes the model to a local file as a stream (temp file in the
// same directory, then rename): the header and sections go through one
// buffered writer straight from the model's arrays, and the body's CRC32-C
// is patched into the header once the body is written. The write allocates
// kilobytes whatever the artifact's size; the temp file is removed on
// every error.
func (m *Model) WriteFile(path string) error {
	secs, err := m.sections()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	crc, err := writeArtifact(f, secs)
	if err == nil {
		_, err = f.WriteAt(binary.LittleEndian.AppendUint32(nil, crc), 12)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ReadFile loads and verifies a model from a local file.
func ReadFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
