package model_test

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/model"
)

// compactModel is testModel with the optional q8 sections populated.
func compactModel() *model.Model {
	m := testModel()
	m.BuildCompact()
	return m
}

func TestBuildCompact(t *testing.T) {
	m := compactModel()
	if len(m.Data32) != 0 {
		t.Fatalf("BuildCompact built a %d-entry float32 mirror", len(m.Data32))
	}
	if len(m.Q8Codes) != len(m.Data) {
		t.Fatalf("Q8Codes has %d entries, want %d", len(m.Q8Codes), len(m.Data))
	}
	if !m.Q8Params().Valid(m.Dim) {
		t.Fatal("q8 params invalid")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dequantized coordinates stay within the half-step residual bound.
	p := m.Q8Params()
	for i := range m.Data {
		d := i % m.Dim
		got := p.Dequant(d, m.Q8Codes[i])
		if diff := math.Abs(got - m.Data[i]); diff > p.Scale[d]/2*(1+1e-9) {
			t.Fatalf("coordinate %d: dequant residual %g > %g", i, diff, p.Scale[d]/2)
		}
	}
}

func TestBuildCompactUnquantizable(t *testing.T) {
	m := testModel()
	m.Data[3] = math.MaxFloat64
	m.Data[5] = -math.MaxFloat64 // spread overflows the q8 scale
	m.BuildCompact()
	if len(m.Q8Codes) != 0 || len(m.Q8Min) != 0 {
		t.Fatal("unquantizable data must leave the q8 section empty")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripCompactFile(t *testing.T) {
	m := compactModel()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("compact round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

// TestUnknownSectionSkipped pins the forward-compatibility contract the
// compact sections rely on: a reader that does not know a section name
// (as pre-compact readers do not know q8codes/q8params, and this one no
// longer knows points32) must
// skip it and still decode the rest of the artifact.
func TestUnknownSectionSkipped(t *testing.T) {
	m := testModel()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body := data[24:]
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "sec-from-the-future", Value: []byte{1, 2, 3}})
	reframed := append([]byte(nil), data[:24]...)
	binary.LittleEndian.PutUint32(reframed[12:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	binary.LittleEndian.PutUint64(reframed[16:], uint64(len(body)))
	reframed = append(reframed, body...)

	got, err := model.Decode(reframed)
	if err != nil {
		t.Fatalf("unknown section broke decoding: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("model with an extra unknown section decoded differently")
	}
}

// TestCompactCorruptionQuarantined flips bits inside the compact sections;
// the body CRC covers them, so every flip must be rejected.
func TestCompactCorruptionQuarantined(t *testing.T) {
	m := compactModel()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plainLen := func() int {
		d, err := testModel().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return len(d)
	}()
	if len(data) <= plainLen {
		t.Fatal("compact sections added no bytes?")
	}
	// Flip bits only in the tail the compact sections occupy.
	for pos := plainLen; pos < len(data); pos += 13 {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0x01
		if _, err := model.Decode(corrupt); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("bit flip at %d in a compact section: got %v, want checksum error", pos, err)
		}
	}
}

func TestValidateRejectsBadCompact(t *testing.T) {
	cases := map[string]func(*model.Model){
		"short codes":        func(m *model.Model) { m.Q8Codes = m.Q8Codes[:5] },
		"params sans codes":  func(m *model.Model) { m.Q8Codes = nil },
		"bad param dim":      func(m *model.Model) { m.Q8Min = m.Q8Min[:1] },
		"non-finite param":   func(m *model.Model) { m.Q8Scale[0] = math.NaN() },
		"negative q8 scale":  func(m *model.Model) { m.Q8Scale[0] = -1 },
		"infinite q8 offset": func(m *model.Model) { m.Q8Min[0] = math.Inf(1) },
	}
	for name, mutate := range cases {
		m := compactModel()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken compact section", name)
		}
	}
}
