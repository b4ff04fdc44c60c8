package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// Per-lane tests of the blocked distance primitive: every entry of a strip
// — whichever of the four lanes or the scalar remainder produced it — must
// equal the scalar call on the same row bit for bit, for both element
// types, at every dim, strip length and row order.

// hostileRows fills n rows of dim coordinates with small integers (exact
// ties) and the values a lane could mishandle: ±Inf, NaN, −0, overflow.
func hostileRows(rng *rand.Rand, n, dim int) []float64 {
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1e200, -1e200, 1e-200}
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = float64(rng.Intn(5)) + rng.Float64()*float64(rng.Intn(2))
		if rng.Intn(12) == 0 {
			data[i] = special[rng.Intn(len(special))]
		}
	}
	return data
}

// latticeRows is hostileRows with every ordinary coordinate rounded to an
// integer, so exactly equal distances are everywhere.
func latticeRows(rng *rand.Rand, n, dim int) []float64 {
	data := hostileRows(rng, n, dim)
	for i, v := range data {
		if math.Abs(v) < 1e100 { // false for NaN and ±Inf
			data[i] = math.Round(v)
		}
	}
	return data
}

func toF32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// sameFloat32 is sameFloat for float32.
func sameFloat32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func TestBlockedLanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for dim := 1; dim <= 17; dim++ {
		const n = 23
		data := hostileRows(rng, n, dim)
		data32 := toF32(data)
		q := hostileRows(rng, 1, dim)
		q32 := toF32(q)
		for lo := 0; lo < 5; lo++ {
			for cnt := 0; lo+cnt <= n; cnt++ { // every length mod 4, every lane alignment
				out, out32 := make([]float64, cnt), make([]float32, cnt)
				sqDistRange(q, data, lo, out)
				sqDistRange(q32, data32, lo, out32)
				for x := range out {
					r := lo + x
					if want := sqDist(q, data[r*dim:]); !sameFloat(out[x], want) {
						t.Fatalf("dim %d rows [%d,+%d): f64 lane %d = %v, scalar %v", dim, lo, cnt, x, out[x], want)
					}
					if want := sqDist(q32, data32[r*dim:]); !sameFloat32(out32[x], want) {
						t.Fatalf("dim %d rows [%d,+%d): f32 lane %d = %v, scalar %v", dim, lo, cnt, x, out32[x], want)
					}
				}
			}
		}
		// Gathered rows: any order, repeats allowed.
		for cnt := 0; cnt <= 9; cnt++ {
			rows := make([]int32, cnt)
			for x := range rows {
				rows[x] = int32(rng.Intn(n))
			}
			out, out32 := make([]float64, cnt), make([]float32, cnt)
			sqDistRows(q, data, rows, out)
			sqDistRows(q32, data32, rows, out32)
			for x, r := range rows {
				if want := sqDist(q, data[int(r)*dim:]); !sameFloat(out[x], want) {
					t.Fatalf("dim %d gathered f64 lane %d (row %d) = %v, scalar %v", dim, x, r, out[x], want)
				}
				if want := sqDist(q32, data32[int(r)*dim:]); !sameFloat32(out32[x], want) {
					t.Fatalf("dim %d gathered f32 lane %d (row %d) = %v, scalar %v", dim, x, r, out32[x], want)
				}
			}
		}
	}
}

// The quantized gathered strips make the same promise against q8Dist.
func TestBlockedQ8LanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for dim := 1; dim <= 17; dim++ {
		const n = 23
		codes := make([]uint8, n*dim)
		for i := range codes {
			codes[i] = uint8(rng.Intn(256))
		}
		tab := make([]float32, dim*256)
		for i := range tab {
			tab[i] = float32(rng.Float64() * 100)
		}
		rows := make([]int32, 9)
		for x := range rows {
			rows[x] = int32(rng.Intn(n))
		}
		out := make([]float32, len(rows))
		q8DistRows(codes, dim, tab, rows, out)
		for x, r := range rows {
			if want := q8Dist(codes[int(r)*dim:][:dim], tab); math.Float32bits(out[x]) != math.Float32bits(want) {
				t.Fatalf("dim %d gathered q8 lane %d (row %d) = %v, scalar %v", dim, x, r, out[x], want)
			}
		}
	}
}
