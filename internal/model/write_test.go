package model_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// legacyMeta is the meta section as every writer so far has laid it out.
func legacyMeta(m *model.Model) []byte {
	meta := binary.LittleEndian.AppendUint32(nil, uint32(m.Dim))
	meta = points.AppendFloat64(meta, m.Dc)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(m.LSH.Seed))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(m.LSH.M))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(m.LSH.Pi))
	meta = points.AppendFloat64(meta, m.LSH.W)
	return append(meta, m.Name...)
}

// legacyEncode is the section-by-section encoder the streaming writer
// replaced: every section encoded into its own slice, the body grown frame
// by frame with AppendFrame, then the header and body copied into the
// artifact. With mirror set it also writes the float32 mirror of Data in a
// "points32" frame after the border, as earlier writers did whenever they
// wrote compact sections: the older format this reader must still load.
func legacyEncode(m *model.Model, mirror bool) []byte {
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
	body := mapreduce.AppendFrame(nil, mapreduce.Pair{Key: "meta", Value: legacyMeta(m)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "points", Value: floats(m.Data)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "rho", Value: floats(m.Rho)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "labels", Value: int32s(m.Labels)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "peaks", Value: int32s(m.Peaks)})
	body = mapreduce.AppendFrame(body, mapreduce.Pair{Key: "border", Value: floats(m.Border)})
	if mirror {
		f32 := make([]byte, 0, 4*len(m.Data))
		for _, x := range m.Data {
			f32 = binary.LittleEndian.AppendUint32(f32, math.Float32bits(float32(x)))
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
	return withHeader(body)
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

// TestEncodeMatchesLegacy: artifacts in the older format — the float32
// mirror in a "points32" frame beside the q8 sections — still load, for
// every optional-section shape. The legacy bytes decode and validate; they
// answer every query exactly as the new encoding does, at f64 and q8, on
// the pruned and the exact path; and they re-encode to exactly the bytes
// Encode and WriteFile write, which are the legacy writer's with the frame
// dropped.
func TestEncodeMatchesLegacy(t *testing.T) {
	compact := func(m *model.Model) *model.Model { m.BuildCompact(); return m }
	cases := map[string]struct {
		build  func() *model.Model
		mirror bool // the older writer put a points32 frame in the artifact
	}{
		"plain":   {testModel, false},
		"compact": {func() *model.Model { return compact(testModel()) }, true},
		"compact and row IDs": {func() *model.Model {
			m := compact(testModel())
			m.RowIDs = []int32{1, 3, 5, 7, 9, 11}
			return m
		}, true},
		// What older writers wrote for data q8 cannot code: the mirror alone.
		"float32 only": {testModel, true},
		// The shape this encoder writes for compact data.
		"q8 only": {func() *model.Model { return compact(testModel()) }, false},
		"row IDs only": {func() *model.Model {
			m := testModel()
			m.RowIDs = []int32{0, 2, 4, 6, 8, 10}
			return m
		}, false},
		"no LSH": {func() *model.Model {
			m := compact(testModel())
			m.LSH = model.Params{}
			return m
		}, true},
		// Validate wants one border per peak, so "no halo" is the all-zero
		// border a run without halo detection exports.
		"zero border, no name": {func() *model.Model {
			m := testModel()
			m.Border = make([]float64, len(m.Peaks))
			m.Name = ""
			return m
		}, false},
		"10 000 rows": {func() *model.Model { return randomModel(10_000, 8, true) }, true},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			m := c.build()
			want := legacyEncode(m, false)
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

			old, err := model.Decode(legacyEncode(m, c.mirror))
			if err != nil {
				t.Fatalf("legacy artifact: %v", err)
			}
			mustEqual(t, old, m)
			again, err := old.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Fatalf("legacy artifact re-encodes to %d bytes, want the new encoder's %d", len(again), len(want))
			}
			sameAnswers(t, old, back)
		})
	}
}

// sameAnswers fails unless engines over got and want, at f64 and q8, give
// the same assignment to every stored row and to each row moved off its
// spot, on the pruned and on the exact path.
func sameAnswers(t *testing.T, got, want *model.Model) {
	t.Helper()
	var qs []points.Vector
	for i := 0; i < want.N(); i += 1 + want.N()/64 {
		q := append(points.Vector(nil), want.Row(i)...)
		qs = append(qs, q)
		moved := append(points.Vector(nil), q...)
		moved[0] += 0.3
		qs = append(qs, moved)
	}
	for _, prec := range []serve.Precision{serve.PrecF64, serve.PrecQ8} {
		eg, err := serve.NewEngine(got, prec)
		if err != nil {
			t.Fatal(err)
		}
		ew, err := serve.NewEngine(want, prec)
		if err != nil {
			t.Fatal(err)
		}
		if eg.Precision() != prec || ew.Precision() != prec {
			t.Fatalf("engines serve at %s / %s, want %s", eg.Precision(), ew.Precision(), prec)
		}
		for _, exact := range []bool{false, true} {
			ag, errs, _ := eg.AssignBatch(qs, exact)
			aw, werrs, _ := ew.AssignBatch(qs, exact)
			for i := range qs {
				if ag[i] != aw[i] || errs[i] != werrs[i] {
					t.Fatalf("%s exact=%v query %d: %+v (%v), new encoding %+v (%v)", prec, exact, i, ag[i], errs[i], aw[i], werrs[i])
				}
			}
		}
	}
}

// TestWriteFileAllocs: streaming a 100 000-row × 8-d model with compact
// sections and row IDs (an 8.8 MB artifact) allocates at most 1 MB — the
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
	if fi.Size() < 8_800_000 {
		t.Fatalf("artifact is %d bytes, want the ≈ 8.8 MB shape", fi.Size())
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
// × 8-d with its q8 sections, a ≈ 17 MB artifact — to a file.
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
