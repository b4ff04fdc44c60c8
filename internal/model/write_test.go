package model_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/points"
)

// legacyEncode is the encoder the streaming writer replaced, kept as the
// byte-identity oracle: every section encoded into its own slice, the body
// grown frame by frame with AppendFrame, then the header and body copied
// into the artifact.
func legacyEncode(m *model.Model) []byte {
	floats := func(xs []float64) []byte {
		buf := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			buf = points.AppendFloat64(buf, x)
		}
		return buf
	}
	int32s := func(xs []int32) []byte {
		buf := make([]byte, 0, 4*len(xs))
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
		return buf
	}
	meta := binary.LittleEndian.AppendUint32(nil, uint32(m.Dim))
	meta = points.AppendFloat64(meta, m.Dc)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(m.LSH.Seed))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(m.LSH.M))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(m.LSH.Pi))
	meta = points.AppendFloat64(meta, m.LSH.W)
	meta = append(meta, m.Name...)

	body := mapreduce.AppendFrame(nil, mapreduce.Pair{Key: "meta", Value: meta})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "points", Value: floats(m.Data)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "rho", Value: floats(m.Rho)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "labels", Value: int32s(m.Labels)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "peaks", Value: int32s(m.Peaks)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "border", Value: floats(m.Border)})
	if len(m.Data32) != 0 {
		f32 := make([]byte, 0, 4*len(m.Data32))
		for _, x := range m.Data32 {
			f32 = binary.LittleEndian.AppendUint32(f32, math.Float32bits(x))
		}
		body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "points32", Value: f32})
	}
	if len(m.Q8Codes) != 0 {
		body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "q8codes", Value: m.Q8Codes})
		params := append(floats(m.Q8Min), floats(m.Q8Scale)...)
		body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "q8params", Value: params})
	}
	if len(m.RowIDs) != 0 {
		body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "rowids", Value: int32s(m.RowIDs)})
	}
	out := append([]byte("DDPMODL1"), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[8:], model.Version)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	return append(out, body...)
}

// randomModel is an n-row model of dim-d random coordinates with compact
// sections, and with row IDs 2i+1 when rowIDs is set.
func randomModel(n, dim int, rowIDs bool) *model.Model {
	rng := rand.New(rand.NewSource(int64(n)))
	m := &model.Model{
		Name: "random", Dim: dim, Dc: 0.5,
		LSH:    model.Params{Seed: 7, M: 10, Pi: 3, W: 2},
		Data:   make([]float64, n*dim),
		Rho:    make([]float64, n),
		Labels: make([]int32, n),
		Peaks:  []int32{0, int32(n / 2), int32(n - 1)},
		Border: []float64{1, 2, 3},
	}
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 10
	}
	for i := range m.Rho {
		m.Rho[i] = float64(rng.Intn(100))
		m.Labels[i] = int32(rng.Intn(len(m.Peaks)))
	}
	m.BuildCompact()
	if rowIDs {
		m.RowIDs = make([]int32, n)
		for i := range m.RowIDs {
			m.RowIDs[i] = int32(2*i + 1)
		}
	}
	return m
}

// TestEncodeMatchesLegacy: Encode and WriteFile write exactly the bytes
// the section-by-section encoder wrote, for every optional-section shape.
func TestEncodeMatchesLegacy(t *testing.T) {
	cases := map[string]func() *model.Model{
		"plain": testModel,
		"compact": func() *model.Model {
			m := testModel()
			m.BuildCompact()
			return m
		},
		"compact and row IDs": func() *model.Model {
			m := testModel()
			m.BuildCompact()
			m.RowIDs = []int32{1, 3, 5, 7, 9, 11}
			return m
		},
		"float32 only": func() *model.Model {
			m := testModel()
			m.BuildCompact()
			m.Q8Codes, m.Q8Min, m.Q8Scale = nil, nil, nil
			return m
		},
		"q8 only": func() *model.Model {
			m := testModel()
			m.BuildCompact()
			m.Data32 = nil
			return m
		},
		"row IDs only": func() *model.Model {
			m := testModel()
			m.RowIDs = []int32{0, 2, 4, 6, 8, 10}
			return m
		},
		"no LSH": func() *model.Model {
			m := testModel()
			m.LSH = model.Params{}
			return m
		},
		// Validate wants one border per peak, so "no halo" is the all-zero
		// border a run without halo detection exports.
		"zero border, no name": func() *model.Model {
			m := testModel()
			m.Border = make([]float64, len(m.Peaks))
			m.Name = ""
			return m
		},
		"10 000 rows": func() *model.Model { return randomModel(10_000, 8, true) },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			m := build()
			want := legacyEncode(m)
			got, err := m.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Encode: %d bytes differ from the legacy encoder's %d", len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Errorf("Encode buffer has capacity %d for %d bytes", cap(got), len(got))
			}
			path := filepath.Join(t.TempDir(), "m.ddpm")
			if err := m.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, want) {
				t.Fatalf("WriteFile: %d bytes differ from the legacy encoder's %d", len(file), len(want))
			}
			back, err := model.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mustEqual(t, back, m)
		})
	}
}

// TestWriteFileAllocs: streaming a 100 000-row × 8-d model with compact
// sections and row IDs (a 12.0 MB artifact) allocates at most 1 MB — the
// writer's buffer and the section table, never an encoded copy.
func TestWriteFileAllocs(t *testing.T) {
	m := randomModel(100_000, 8, true)
	path := filepath.Join(t.TempDir(), "m.ddpm")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("WriteFile: %d-byte artifact, %d bytes allocated", fi.Size(), alloc)
	if fi.Size() < 12_000_000 {
		t.Fatalf("artifact is %d bytes, want the ≈ 12.0 MB shape", fi.Size())
	}
	if alloc > 1<<20 {
		t.Fatalf("WriteFile allocated %d bytes, want ≤ 1 MB", alloc)
	}
}

// TestWriteFileLeavesNoTempOnError: a write whose rename fails (the target
// is a directory) or whose model is invalid leaves no temp file behind.
func TestWriteFileLeavesNoTempOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ddpm")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := testModel().WriteFile(path); err == nil {
		t.Fatal("WriteFile over a directory succeeded")
	}
	bad := testModel()
	bad.Dc = 0
	if err := bad.WriteFile(filepath.Join(dir, "bad.ddpm")); err == nil {
		t.Fatal("WriteFile of an invalid model succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "m.ddpm" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after failed writes, want only the blocking directory", names)
	}
}

// BenchmarkWriteFile streams a model at the serving shape — 200 000 rows
// × 8-d with its float32 and q8 sections, a ≈ 23 MB artifact — to a file.
func BenchmarkWriteFile(b *testing.B) {
	m := randomModel(200_000, 8, false)
	path := filepath.Join(b.TempDir(), "m.ddpm")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteFile(path); err != nil {
			b.Fatal(err)
		}
	}
	if fi, err := os.Stat(path); err == nil {
		b.SetBytes(fi.Size())
	}
}
