package dataset

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/points"
)

func TestRegistrySpecsGenerateAsDeclared(t *testing.T) {
	for _, spec := range Registry() {
		ds := spec.Gen(1)
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if ds.N() != spec.N {
			t.Fatalf("%s: generated %d points, spec says %d", spec.Name, ds.N(), spec.N)
		}
		if ds.Dim() != spec.Dim {
			t.Fatalf("%s: dim %d, spec says %d", spec.Name, ds.Dim(), spec.Dim)
		}
		if ds.Dim() != spec.PaperDim {
			t.Fatalf("%s: dim %d differs from paper's %d", spec.Name, ds.Dim(), spec.PaperDim)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("want error for unknown data set")
	}
	spec, err := Get("S2")
	if err != nil || spec.Name != "S2" {
		t.Fatalf("Get(S2) = %+v, %v", spec, err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, spec := range Registry() {
		a, b := spec.Gen(7), spec.Gen(7)
		for i := range a.Points {
			for j := range a.Points[i].Pos {
				if a.Points[i].Pos[j] != b.Points[i].Pos[j] {
					t.Fatalf("%s: seed 7 not reproducible at %d/%d", spec.Name, i, j)
				}
			}
		}
		c := spec.Gen(8)
		same := true
		for i := range a.Points {
			for j := range a.Points[i].Pos {
				if a.Points[i].Pos[j] != c.Points[i].Pos[j] {
					same = false
				}
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical data", spec.Name)
		}
	}
}

func TestAggregationStructure(t *testing.T) {
	ds := Aggregation(1)
	if ds.N() != 788 {
		t.Fatalf("N = %d", ds.N())
	}
	seen := map[int]int{}
	for _, l := range ds.Labels {
		seen[l]++
	}
	if len(seen) != 7 {
		t.Fatalf("%d clusters, want 7", len(seen))
	}
	// The original's hallmark: very different cluster sizes.
	minSz, maxSz := ds.N(), 0
	for _, n := range seen {
		if n < minSz {
			minSz = n
		}
		if n > maxSz {
			maxSz = n
		}
	}
	if maxSz < 3*minSz {
		t.Fatalf("cluster sizes too uniform: min %d max %d", minSz, maxSz)
	}
}

func TestS2Structure(t *testing.T) {
	ds := S2(1)
	if ds.N() != 5000 || ds.Dim() != 2 {
		t.Fatalf("S2 shape %dx%d", ds.N(), ds.Dim())
	}
	seen := map[int]bool{}
	for _, l := range ds.Labels {
		seen[l] = true
	}
	if len(seen) != 15 {
		t.Fatalf("%d clusters, want 15", len(seen))
	}
}

func TestBlobsLabelsMatchNearestCenter(t *testing.T) {
	ds := Blobs("b", 500, 3, 4, 1000, 1, 3)
	// With spread << box, points should sit near their own component; at
	// least verify labels are in range and all components non-empty.
	counts := map[int]int{}
	for _, l := range ds.Labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	if len(counts) != 4 {
		t.Fatalf("components used: %v", counts)
	}
}

func TestEmbeddedHighDimStructure(t *testing.T) {
	ds := Facial(1000, 1)
	if ds.Dim() != 300 {
		t.Fatalf("Facial dim = %d", ds.Dim())
	}
	// Variance in the active subspace should dwarf the tail.
	varOf := func(j int) float64 {
		var mean, m2 float64
		for _, p := range ds.Points {
			mean += p.Pos[j]
		}
		mean /= float64(ds.N())
		for _, p := range ds.Points {
			d := p.Pos[j] - mean
			m2 += d * d
		}
		return m2 / float64(ds.N())
	}
	if varOf(0) < 10*varOf(250) {
		t.Fatalf("active dim variance %v not >> tail %v", varOf(0), varOf(250))
	}
}

func TestSpatial3DShape(t *testing.T) {
	ds := Spatial3D(2000, 2)
	if ds.Dim() != 4 || ds.N() != 2000 {
		t.Fatalf("3Dspatial shape %dx%d", ds.N(), ds.Dim())
	}
	if ds.Labels != nil {
		t.Fatal("road data has no ground-truth labels")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := Blobs("csv", 100, 3, 2, 50, 2, 9)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "csv", true)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ds.N() || got.Dim() != ds.Dim() {
		t.Fatalf("round trip shape %dx%d", got.N(), got.Dim())
	}
	for i := range ds.Points {
		for j := range ds.Points[i].Pos {
			if got.Points[i].Pos[j] != ds.Points[i].Pos[j] {
				t.Fatalf("coordinate %d/%d changed", i, j)
			}
		}
		if got.Labels[i] != ds.Labels[i] {
			t.Fatalf("label %d changed", i)
		}
	}
}

// Property: arbitrary float grids survive the CSV round trip exactly.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(rows []float64) bool {
		if len(rows) == 0 {
			return true
		}
		vs := make([]points.Vector, 0, len(rows))
		for _, x := range rows {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0 // CSV floats only
			}
			vs = append(vs, points.Vector{x, -x})
		}
		ds := points.FromVectors("prop", vs)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, "prop", false)
		if err != nil || got.N() != ds.N() {
			return false
		}
		for i := range vs {
			if got.Points[i].Pos[0] != vs[i][0] || got.Points[i].Pos[1] != vs[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewReader([]byte("1,notafloat\n")), "bad", false); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("1.5,badlabel\n")), "bad", true); err == nil {
		t.Fatal("want label error")
	}
	empty, err := ReadCSV(bytes.NewReader(nil), "empty", false)
	if err != nil || empty.N() != 0 {
		t.Fatalf("empty CSV: %v %v", empty.N(), err)
	}
}

func TestSplitDisjointDeterministic(t *testing.T) {
	ds := Blobs("split-src", 200, 3, 4, 50, 2, 5)
	R, S, err := Split(ds, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	if R.N() != 60 || S.N() != 140 {
		t.Fatalf("sizes %d/%d, want 60/140", R.N(), S.N())
	}
	if err := R.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := S.Validate(); err != nil {
		t.Fatal(err)
	}
	key := func(p points.Point) string { return fmt.Sprintf("%v", p.Pos) }
	seen := map[string]int{}
	for _, p := range ds.Points {
		seen[key(p)]++
	}
	for _, half := range []*points.Dataset{R, S} {
		for _, p := range half.Points {
			if seen[key(p)] == 0 {
				t.Fatalf("%s holds a point not in (or over-drawn from) the source: %v", half.Name, p.Pos)
			}
			seen[key(p)]--
		}
	}
	R2, S2, err := Split(ds, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range R.Points {
		if key(R.Points[i]) != key(R2.Points[i]) {
			t.Fatal("split is not deterministic for the same seed")
		}
	}
	if len(S2.Points) != len(S.Points) {
		t.Fatal("split is not deterministic for the same seed")
	}
	if _, _, err := Split(ds, 0, 1); err == nil {
		t.Fatal("size 0 split should fail")
	}
	if _, _, err := Split(ds, ds.N(), 1); err == nil {
		t.Fatal("full-size split should fail")
	}
}

// TestSubsampleKeepsEveryLabel: a strided subsample sees every ground-truth
// cluster of its data set, under dense IDs 0, 1, …, at every scale the
// tests and benchmarks use, and leaves the data set it reads unchanged.
func TestSubsampleKeepsEveryLabel(t *testing.T) {
	distinct := func(labels []int) int {
		seen := map[int]bool{}
		for _, l := range labels {
			seen[l] = true
		}
		return len(seen)
	}
	for _, spec := range Registry() {
		full := spec.Gen(1)
		labels := distinct(full.Labels)
		for _, s := range []int{1, 4, 16} {
			ds := Subsample(full, full.N()/s)
			if want := full.N() / s; ds.N() != want {
				t.Errorf("%s at scale %d: %d points, want %d", spec.Name, s, ds.N(), want)
			}
			for i, p := range ds.Points {
				if p.ID != int32(i) {
					t.Fatalf("%s at scale %d: point %d has ID %d", spec.Name, s, i, p.ID)
				}
			}
			if got := distinct(ds.Labels); got != labels {
				t.Errorf("%s at scale %d keeps %d of %d labels", spec.Name, s, got, labels)
			}
		}
		for i, p := range full.Points {
			if p.ID != int32(i) || full.N() != spec.N {
				t.Fatalf("%s: subsampling changed the full set (point %d has ID %d, %d points)", spec.Name, i, p.ID, full.N())
			}
		}
	}
}
