package points

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Matrix is a structure-of-arrays point batch: all coordinates live in one
// contiguous []float64 (row-major, n rows of Dim), with parallel ID and —
// for RhoPoint batches — density arrays. Reducers decode a whole group into
// one Matrix instead of materializing one Vector per record, which turns
// len(values) small heap allocations into at most three slice grows (zero
// in steady state when the Matrix is pooled), and gives the pairwise
// kernels in internal/kernels a cache-friendly flat layout to tile over.
type Matrix struct {
	dim  int
	n    int
	data []float64 // len n*dim, row-major
	ids  []int32   // len n
	rho  []float64 // len n when decoded from RhoPoints, else len 0
}

// N returns the number of rows.
func (m *Matrix) N() int { return m.n }

// Dim returns the row dimensionality (0 while empty).
func (m *Matrix) Dim() int { return m.dim }

// Data exposes the flat coordinate storage (len N()*Dim()).
func (m *Matrix) Data() []float64 { return m.data[:m.n*m.dim] }

// Row returns row i as a Vector aliasing the flat storage. The slice is
// invalidated by the next Append*.
func (m *Matrix) Row(i int) Vector { return m.data[i*m.dim : (i+1)*m.dim] }

// ID returns the point ID of row i.
func (m *Matrix) ID(i int) int32 { return m.ids[i] }

// IDs exposes the ID column (len N()).
func (m *Matrix) IDs() []int32 { return m.ids[:m.n] }

// Rho returns the density of row i. Only valid for RhoPoint batches.
func (m *Matrix) Rho(i int) float64 { return m.rho[i] }

// Rhos exposes the density column (len N() for RhoPoint batches, else 0).
func (m *Matrix) Rhos() []float64 { return m.rho }

// Reset empties the matrix, keeping the backing arrays for reuse.
func (m *Matrix) Reset() {
	m.dim, m.n = 0, 0
	m.data = m.data[:0]
	m.ids = m.ids[:0]
	m.rho = m.rho[:0]
}

// grow makes room for one more row of dim floats, establishing dim on the
// first append and rejecting mixed dimensionality afterwards.
func (m *Matrix) grow(dim int) error {
	if m.n == 0 {
		m.dim = dim
	} else if dim != m.dim {
		return fmt.Errorf("points: matrix row dim %d, want %d", dim, m.dim)
	}
	return nil
}

// AppendPoint decodes one point record from the front of buf into a new
// row and returns the unconsumed rest.
func (m *Matrix) AppendPoint(buf []byte) ([]byte, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("points: short point header: %d bytes", len(buf))
	}
	id := int32(binary.LittleEndian.Uint32(buf))
	dim := int(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if len(buf) < 8*dim {
		return nil, fmt.Errorf("points: short point body: want %d floats, have %d bytes", dim, len(buf))
	}
	if err := m.grow(dim); err != nil {
		return nil, err
	}
	off := len(m.data)
	m.data = append(m.data, make([]float64, dim)...)
	row := m.data[off:]
	for i := 0; i < dim; i++ {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	m.ids = append(m.ids, id)
	m.n++
	return buf[8*dim:], nil
}

// AppendRhoPoint decodes one RhoPoint record from the front of buf into a
// new row (position, ID, and density) and returns the unconsumed rest.
func (m *Matrix) AppendRhoPoint(buf []byte) ([]byte, error) {
	rest, err := m.AppendPoint(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("points: short rho tail: %d bytes", len(rest))
	}
	m.rho = append(m.rho, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
	return rest[8:], nil
}

// DecodePointsInto batch-decodes one point record per value into m,
// replacing its contents. Each value must hold exactly one point.
func DecodePointsInto(m *Matrix, values [][]byte) error {
	m.Reset()
	for _, v := range values {
		rest, err := m.AppendPoint(v)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("points: %d trailing bytes after point", len(rest))
		}
	}
	return nil
}

// DecodeRhoPointsInto batch-decodes one RhoPoint record per value into m,
// replacing its contents. Each value must hold exactly one RhoPoint.
func DecodeRhoPointsInto(m *Matrix, values [][]byte) error {
	m.Reset()
	for _, v := range values {
		rest, err := m.AppendRhoPoint(v)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("points: %d trailing bytes after rho point", len(rest))
		}
	}
	return nil
}

// Gather replaces m's contents with the listed rows of src, in that order
// (densities too when src carries them). src must not be m.
func (m *Matrix) Gather(src *Matrix, rows []int32) {
	m.Reset()
	m.dim, m.n = src.dim, len(rows)
	for _, r := range rows {
		m.data = append(m.data, src.Row(int(r))...)
		m.ids = append(m.ids, src.ids[r])
		if len(src.rho) > 0 {
			m.rho = append(m.rho, src.rho[r])
		}
	}
}

// matrixPool recycles Matrix backing arrays across reducer groups; the
// pairwise jobs decode thousands of groups per run and would otherwise
// re-grow the flat arrays for every one.
var matrixPool = sync.Pool{New: func() any { return new(Matrix) }}

// GetMatrix returns an empty Matrix from the pool.
func GetMatrix() *Matrix {
	m := matrixPool.Get().(*Matrix)
	m.Reset()
	return m
}

// PutMatrix returns m to the pool. The caller must not retain m or any
// slice obtained from it.
func PutMatrix(m *Matrix) { matrixPool.Put(m) }
