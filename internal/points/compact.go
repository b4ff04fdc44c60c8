package points

import "math"

// Compact coordinate representations for the bandwidth-lean serving scan.
//
// ToFloat32 mirrors a flat float64 block in float32, and QuantizeQ8 reduces
// it further to one byte per coordinate with a per-dimension affine code.
// Both are derived representations: the float64 block stays the source of
// truth, and every kernel that scans a compact block re-ranks its shortlist
// against the float64 data (see internal/kernels), so the compression here
// only has to be cheap and bounded, never exact. Alongside the converted
// coordinates each conversion reports the largest absolute source
// coordinate, which the kernels need to build sound error bounds.
// Coordinates outside float32 range convert to ±Inf; the compact kernels
// route any non-finite arithmetic to the exact float64 path, so an
// overflowing mirror is slow but never wrong.

// ToFloat32 converts a flat float64 block, returning the float32 copy and
// the largest absolute source value. NaNs contribute nothing to the maximum.
func ToFloat32(src []float64) ([]float32, float64) {
	dst := make([]float32, len(src))
	var maxAbs float64
	for i, v := range src {
		dst[i] = float32(v)
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return dst, maxAbs
}

// Q8Params is the per-dimension affine code of an 8-bit quantized block:
// coordinate x of dimension d encodes as round((x − Min[d]) / Scale[d]),
// clamped to [0, 255], and decodes as Min[d] + Scale[d]·code. A dimension
// with zero spread has Scale 0 and every code 0.
type Q8Params struct {
	Min   []float64
	Scale []float64
}

// Dim returns the dimensionality of the code.
func (p Q8Params) Dim() int { return len(p.Min) }

// Valid reports whether the parameters describe a usable dim-dimensional
// code: matching lengths and finite values with non-negative scales.
func (p Q8Params) Valid(dim int) bool {
	if len(p.Min) != dim || len(p.Scale) != dim {
		return false
	}
	for d := 0; d < dim; d++ {
		if !isFinite(p.Min[d]) || !isFinite(p.Scale[d]) || p.Scale[d] < 0 {
			return false
		}
	}
	return true
}

// Dequant decodes one coordinate.
func (p Q8Params) Dequant(d int, code uint8) float64 {
	return p.Min[d] + p.Scale[d]*float64(code)
}

// ErrBound returns a Euclidean-distance error bound for the code: the
// rounding residual per dimension is at most Scale[d]/2, so the distance
// between a point and its dequantized form is at most
// sqrt(Σ (Scale[d]/2)²) = ErrBound()/2. Returning the doubled value gives
// the kernels' threshold math a built-in 2x safety margin.
func (p Q8Params) ErrBound() float64 {
	var s float64
	for _, sc := range p.Scale {
		s += sc * sc
	}
	return math.Sqrt(s)
}

// QuantizeQ8 builds the 8-bit code of a flat float64 block (rows of dim).
// ok is false when the block cannot be quantized — any non-finite
// coordinate, or a per-dimension spread too large for a finite scale.
func QuantizeQ8(data []float64, dim int) (codes []uint8, p Q8Params, ok bool) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, Q8Params{}, false
	}
	mins := make([]float64, dim)
	maxs := make([]float64, dim)
	for d := 0; d < dim; d++ {
		mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
	}
	for i := 0; i < len(data); i += dim {
		for d := 0; d < dim; d++ {
			v := data[i+d]
			if !isFinite(v) {
				return nil, Q8Params{}, false
			}
			if v < mins[d] {
				mins[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	scales := make([]float64, dim)
	if len(data) > 0 {
		for d := 0; d < dim; d++ {
			sc := (maxs[d] - mins[d]) / 255
			if !isFinite(sc) {
				return nil, Q8Params{}, false
			}
			scales[d] = sc
		}
	} else {
		for d := 0; d < dim; d++ {
			mins[d] = 0
		}
	}
	codes = make([]uint8, len(data))
	for i := 0; i < len(data); i += dim {
		for d := 0; d < dim; d++ {
			if scales[d] == 0 {
				continue // codes[i+d] stays 0, dequantizes to Min[d]
			}
			c := math.Round((data[i+d] - mins[d]) / scales[d])
			if c < 0 {
				c = 0
			} else if c > 255 {
				c = 255
			}
			codes[i+d] = uint8(c)
		}
	}
	return codes, Q8Params{Min: mins, Scale: scales}, true
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
