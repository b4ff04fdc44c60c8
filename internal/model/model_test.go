package model_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/model"
)

// testModel builds a small, fully populated model.
func testModel() *model.Model {
	return &model.Model{
		Name: "unit",
		Dim:  2,
		Dc:   0.75,
		LSH:  model.Params{Seed: 42, M: 4, Pi: 3, W: 1.5},
		Data: []float64{
			0, 0, 1, 0, 0, 1,
			10, 10, 11, 10, 10, 11,
		},
		Rho:    []float64{3, 2, 2, 3, 2, 2},
		Labels: []int32{0, 0, 0, 1, 1, 1},
		Peaks:  []int32{0, 3},
		Border: []float64{1.5, 1.25},
	}
}

func mustEqual(t *testing.T, got, want *model.Model) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestRoundTripFile(t *testing.T) {
	m := testModel()
	path := filepath.Join(t.TempDir(), "m.ddpm")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := model.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, m)
}

// Layouts must regenerate identically from the stored parameters: same keys
// for the same point before and after a round trip.
func TestLayoutsRegenerate(t *testing.T) {
	m := testModel()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Layouts().Keys(m.Row(0))
	if gotKeys := got.Layouts().Keys(got.Row(0)); !reflect.DeepEqual(gotKeys, want) {
		t.Fatalf("regenerated layouts disagree: %v vs %v", gotKeys, want)
	}
}

func TestNoLSHModel(t *testing.T) {
	m := testModel()
	m.LSH = model.Params{}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layouts() != nil {
		t.Fatal("model without LSH params should have nil layouts")
	}
}

func TestCorruptionDetected(t *testing.T) {
	m := testModel()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every body byte position sampled across the artifact;
	// each must surface as a checksum error, never as a silently wrong model.
	for pos := 16 + 8; pos < len(data); pos += 97 {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0x40
		_, err := model.Decode(corrupt)
		if err == nil {
			t.Fatalf("bit flip at %d went undetected", pos)
		}
		if !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("bit flip at %d: got %v, want checksum error", pos, err)
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	m := testModel()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := model.Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[8] = 0xFF // format version
	if _, err := model.Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: got %v", err)
	}

	if _, err := model.Decode(data[:len(data)-3]); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation: got %v", err)
	}
}

// TestValidateRejectsInconsistency: Validate refuses a model whose parts
// disagree, and one whose d_c or LSH parameters would serve wrongly or make
// NewEngine allocate without bound (2-d × M 2^30 × π 2^10 is 2^41 layout
// coordinates). Those parameters live in the meta section, so Decode must
// refuse them too, naming the field.
func TestValidateRejectsInconsistency(t *testing.T) {
	cases := map[string]struct {
		mutate func(*model.Model)
		field  string // named by Decode's error when set
	}{
		"no points":    {func(m *model.Model) { m.Labels = nil; m.Rho = nil; m.Data = nil }, ""},
		"bad label":    {func(m *model.Model) { m.Labels[2] = 99 }, ""},
		"bad peak":     {func(m *model.Model) { m.Peaks[0] = -1 }, ""},
		"border count": {func(m *model.Model) { m.Border = m.Border[:1] }, ""},
		"coord count":  {func(m *model.Model) { m.Data = m.Data[:5] }, ""},
		"bad dc":       {func(m *model.Model) { m.Dc = 0 }, "d_c"},
		"NaN dc":       {func(m *model.Model) { m.Dc = math.NaN() }, "d_c"},
		"infinite dc":  {func(m *model.Model) { m.Dc = math.Inf(1) }, "d_c"},
		"zero pi":      {func(m *model.Model) { m.LSH.Pi = 0 }, "lsh_pi"},
		"zero w":       {func(m *model.Model) { m.LSH.W = 0 }, "lsh_w"},
		"NaN w":        {func(m *model.Model) { m.LSH.W = math.NaN() }, "lsh_w"},
		"infinite w":   {func(m *model.Model) { m.LSH.W = math.Inf(1) }, "lsh_w"},
		"huge layouts": {func(m *model.Model) { m.LSH.M, m.LSH.Pi = 1<<30, 1<<10 }, "layouts"},
	}
	for name, c := range cases {
		m := testModel()
		c.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an inconsistent model", name)
		}
		if c.field == "" {
			continue
		}
		fs := sections(t, testModel())
		fs[0].Value = legacyMeta(m)
		if _, err := model.Decode(withHeader(body(fs))); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Decode returned %v, want an error naming %s", name, err, c.field)
		}
	}
}

// withHeader puts body under a valid header: magic, format version, the
// body's CRC32-C and its length.
func withHeader(body []byte) []byte {
	out := append([]byte("DDPMODL1"), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[8:], model.Version)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	return append(out, body...)
}

// sections returns the framed sections of an encoded model's body.
func sections(t testing.TB, m *model.Model) []mapreduce.Pair {
	t.Helper()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	frames, err := mapreduce.DecodeFrames(nil, data[24:])
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func body(frames []mapreduce.Pair) []byte {
	var b []byte
	for _, f := range frames {
		b = mapreduce.AppendFrame(b, f)
	}
	return b
}

// TestDecodeRejectsRaggedSections: under a valid checksum, a section whose
// length is not a whole number of its elements, or a known section that
// appears twice, is an error — never a model built from a truncated or
// overwritten section.
func TestDecodeRejectsRaggedSections(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func([]mapreduce.Pair) []mapreduce.Pair
	}{
		{"2 stray bytes on rho", func(fs []mapreduce.Pair) []mapreduce.Pair { return pad(fs, "rho", 2) }},
		{"1 stray byte on labels", func(fs []mapreduce.Pair) []mapreduce.Pair { return pad(fs, "labels", 1) }},
		{"3 stray bytes on q8params", func(fs []mapreduce.Pair) []mapreduce.Pair { return pad(fs, "q8params", 3) }},
		{"rowids repeated", func(fs []mapreduce.Pair) []mapreduce.Pair { return repeat(fs, "rowids") }},
		{"border repeated", func(fs []mapreduce.Pair) []mapreduce.Pair { return repeat(fs, "border") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := testModel()
			m.BuildCompact()
			m.RowIDs = []int32{1, 3, 5, 7, 9, 11}
			if _, err := model.Decode(withHeader(body(c.mutate(sections(t, m))))); err == nil {
				t.Fatal("decoded without error")
			}
		})
	}
	// An unknown section may repeat: a newer revision's, skipped.
	fs := sections(t, testModel())
	fs = append(fs, mapreduce.Pair{Key: "future", Value: []byte{1}}, mapreduce.Pair{Key: "future", Value: []byte{2, 3}})
	if _, err := model.Decode(withHeader(body(fs))); err != nil {
		t.Fatalf("repeated unknown section: %v", err)
	}
}

// pad appends n zero bytes to the named section.
func pad(fs []mapreduce.Pair, name string, n int) []mapreduce.Pair {
	for i := range fs {
		if fs[i].Key == name {
			fs[i].Value = append(append([]byte(nil), fs[i].Value...), make([]byte, n)...)
			return fs
		}
	}
	panic("no section " + name)
}

// repeat appends a second copy of the named section.
func repeat(fs []mapreduce.Pair, name string) []mapreduce.Pair {
	for _, f := range fs {
		if f.Key == name {
			return append(fs, f)
		}
	}
	panic("no section " + name)
}

// FuzzModelDecode fuzzes an artifact's body under a recomputed header and
// checksum, so inputs reach the section walk rather than the CRC check.
// Decode must return an error or a valid model that round-trips through
// Encode and Decode unchanged; it must never panic.
func FuzzModelDecode(f *testing.F) {
	plain := testModel()
	f.Add(body(sections(f, plain)))
	full := testModel()
	full.BuildCompact()
	full.RowIDs = []int32{1, 3, 5, 7, 9, 11}
	fs := sections(f, full)
	f.Add(body(fs))
	f.Add(body(pad(sections(f, plain), "rho", 2)))
	f.Add(body(repeat(fs, "peaks")))
	f.Add(body(append(fs, mapreduce.Pair{Key: "future", Value: []byte{7}})))
	f.Add([]byte{})
	huge := testModel()
	huge.LSH.M, huge.LSH.Pi = 1<<30, 1<<10
	hfs := sections(f, plain)
	hfs[0].Value = legacyMeta(huge)
	f.Add(body(hfs))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := model.Decode(withHeader(b))
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded model does not encode: %v", err)
		}
		again, err := model.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded model does not decode: %v", err)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("model changed across Encode / Decode (%v)", err)
		}
	})
}
