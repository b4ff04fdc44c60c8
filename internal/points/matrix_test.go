package points

import (
	"math"
	"testing"
)

func testPoints(n, dim int, seed int64) []Point {
	rng := NewRand(seed)
	pts := make([]Point, n)
	for i := range pts {
		pos := make(Vector, dim)
		for j := range pos {
			pos[j] = rng.NormFloat64() * 10
		}
		pts[i] = Point{ID: int32(i * 3), Pos: pos}
	}
	return pts
}

func TestDecodePointsInto(t *testing.T) {
	for _, dim := range []int{1, 2, 5, 8} {
		pts := testPoints(17, dim, int64(dim))
		values := make([][]byte, len(pts))
		for i, p := range pts {
			values[i] = EncodePoint(p)
		}
		m := GetMatrix()
		if err := DecodePointsInto(m, values); err != nil {
			t.Fatal(err)
		}
		if m.N() != len(pts) || m.Dim() != dim {
			t.Fatalf("decoded %dx%d, want %dx%d", m.N(), m.Dim(), len(pts), dim)
		}
		for i, p := range pts {
			if m.ID(i) != p.ID {
				t.Fatalf("row %d id %d, want %d", i, m.ID(i), p.ID)
			}
			for j, x := range p.Pos {
				if m.Row(i)[j] != x {
					t.Fatalf("row %d[%d] = %v, want %v", i, j, m.Row(i)[j], x)
				}
			}
		}
		if len(m.Rhos()) != 0 {
			t.Fatalf("point batch grew a rho column")
		}
		PutMatrix(m)
	}
}

func TestDecodeRhoPointsInto(t *testing.T) {
	pts := testPoints(23, 3, 7)
	values := make([][]byte, len(pts))
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = float64(i) * 1.25
		values[i] = EncodeRhoPoint(RhoPoint{Point: p, Rho: want[i]})
	}
	var m Matrix
	if err := DecodeRhoPointsInto(&m, values); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if m.Rho(i) != want[i] {
			t.Fatalf("rho[%d] = %v, want %v", i, m.Rho(i), want[i])
		}
	}
	// Reuse: decoding a second, smaller batch must not leak the first.
	if err := DecodeRhoPointsInto(&m, values[:5]); err != nil {
		t.Fatal(err)
	}
	if m.N() != 5 || len(m.Rhos()) != 5 || len(m.IDs()) != 5 {
		t.Fatalf("reused matrix kept stale rows: n=%d rho=%d ids=%d", m.N(), len(m.Rhos()), len(m.IDs()))
	}
}

func TestMatrixRejectsMixedDims(t *testing.T) {
	var m Matrix
	values := [][]byte{
		EncodePoint(Point{ID: 0, Pos: Vector{1, 2}}),
		EncodePoint(Point{ID: 1, Pos: Vector{1, 2, 3}}),
	}
	if err := DecodePointsInto(&m, values); err == nil {
		t.Fatal("mixed dimensionality accepted")
	}
}

func TestMatrixRejectsTruncated(t *testing.T) {
	var m Matrix
	enc := EncodePoint(Point{ID: 0, Pos: Vector{1, 2, 3}})
	for _, cut := range []int{1, 7, 9, len(enc) - 1} {
		if err := DecodePointsInto(&m, [][]byte{enc[:cut]}); err == nil {
			t.Fatalf("truncated record (%d bytes) accepted", cut)
		}
	}
	if err := DecodeRhoPointsInto(&m, [][]byte{enc}); err == nil {
		t.Fatal("point record accepted as rho point")
	}
}

func TestMatrixDecodeMatchesScalarDecode(t *testing.T) {
	// The batch decoder must agree bit-for-bit with the scalar codec,
	// including non-finite values.
	p := Point{ID: 42, Pos: Vector{math.Inf(1), math.NaN(), -0.0}}
	rp := RhoPoint{Point: p, Rho: math.Inf(1)}
	var m Matrix
	if err := DecodeRhoPointsInto(&m, [][]byte{EncodeRhoPoint(rp)}); err != nil {
		t.Fatal(err)
	}
	ref := MustDecodeRhoPoint(EncodeRhoPoint(rp))
	for j := range ref.Pos {
		if math.Float64bits(m.Row(0)[j]) != math.Float64bits(ref.Pos[j]) {
			t.Fatalf("coord %d: %x vs %x", j, math.Float64bits(m.Row(0)[j]), math.Float64bits(ref.Pos[j]))
		}
	}
	if math.Float64bits(m.Rho(0)) != math.Float64bits(ref.Rho) {
		t.Fatal("rho bits differ")
	}
}

func BenchmarkDecodeGroup(b *testing.B) {
	// Reducer-group decode: per-record scalar decode (one Vector allocation
	// per value) vs. batch decode into a reused Matrix.
	pts := testPoints(512, 2, 1)
	values := make([][]byte, len(pts))
	for i, p := range pts {
		values[i] = EncodeRhoPoint(RhoPoint{Point: p, Rho: float64(i)})
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pts := make([]RhoPoint, 0, len(values))
			for _, v := range values {
				rp, _, err := DecodeRhoPoint(v)
				if err != nil {
					b.Fatal(err)
				}
				pts = append(pts, rp)
			}
			_ = pts
		}
	})
	b.Run("matrix", func(b *testing.B) {
		b.ReportAllocs()
		var m Matrix
		for i := 0; i < b.N; i++ {
			if err := DecodeRhoPointsInto(&m, values); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestMatrixGather(t *testing.T) {
	src := new(Matrix)
	var values [][]byte
	for i := 0; i < 6; i++ {
		values = append(values, EncodeRhoPoint(RhoPoint{
			Point: Point{ID: int32(10 + i), Pos: Vector{float64(i), float64(-i)}}, Rho: float64(i) / 2,
		}))
	}
	if err := DecodeRhoPointsInto(src, values); err != nil {
		t.Fatal(err)
	}
	m := GetMatrix()
	defer PutMatrix(m)
	rows := []int32{4, 0, 5, 0}
	m.Gather(src, rows)
	if m.N() != len(rows) || m.Dim() != 2 || len(m.Rhos()) != len(rows) {
		t.Fatalf("gathered %d rows of dim %d with %d densities", m.N(), m.Dim(), len(m.Rhos()))
	}
	for i, r := range rows {
		if m.ID(i) != src.ID(int(r)) || m.Rho(i) != src.Rho(int(r)) || m.Row(i)[0] != src.Row(int(r))[0] || m.Row(i)[1] != src.Row(int(r))[1] {
			t.Fatalf("row %d is not source row %d", i, r)
		}
	}
	// A plain point batch carries no densities, and an empty list empties m.
	plain := new(Matrix)
	if err := DecodePointsInto(plain, [][]byte{EncodePoint(Point{ID: 1, Pos: Vector{2}})}); err != nil {
		t.Fatal(err)
	}
	m.Gather(plain, []int32{0, 0})
	if m.N() != 2 || len(m.Rhos()) != 0 || m.Row(1)[0] != 2 {
		t.Fatalf("gather of a plain batch: n=%d rhos=%d", m.N(), len(m.Rhos()))
	}
	m.Gather(src, nil)
	if m.N() != 0 || len(m.Data()) != 0 {
		t.Fatalf("gather of no rows left %d rows", m.N())
	}
}
