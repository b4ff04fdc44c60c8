package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/points"
)

// Benchmarks for the scan kernels (make bench-scan). NNScan measures one
// full float64 pass over a 1M×8 block, and NNBatch the same pass shared by
// 64 queries, against 64 single-query passes (f64-seq); NNRows scans a
// served query's sparse candidate list at each precision, with the exact
// re-rank; TopKScan and TopKSweep are the kNN-join's flat and swept top-k.

type scanFixture struct {
	n, dim int
	data   []float64
	data32 []float32
	maxAbs float64
	codes  []uint8
	par    points.Q8Params
	qs     []float64
	qs32   []float32
}

func newScanFixture(b *testing.B, n, dim, nq int) *scanFixture {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	f := &scanFixture{n: n, dim: dim}
	f.data = make([]float64, n*dim)
	for i := range f.data {
		f.data[i] = rng.NormFloat64() * 10
	}
	f.data32, f.maxAbs = points.ToFloat32(f.data)
	var ok bool
	f.codes, f.par, ok = points.QuantizeQ8(f.data, dim)
	if !ok {
		b.Fatal("quantize failed")
	}
	f.qs = make([]float64, nq*dim)
	for i := range f.qs {
		f.qs[i] = rng.NormFloat64() * 10
	}
	f.qs32, _ = points.ToFloat32(f.qs)
	return f
}

func BenchmarkNNScan(b *testing.B) {
	f := newScanFixture(b, 1_000_000, 8, 1)
	q := f.qs[:f.dim]
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 8))
		for i := 0; i < b.N; i++ {
			NNRange(f.data, f.dim, q, 0, f.n)
		}
	})
}

// BenchmarkNNRows measures the serve engine's real shape: one query against
// its LSH candidate union, ≈20 K sparse ascending rows of a 200k×8 block
// (10 %, as serve-read measures), per precision with the exact re-rank.
func BenchmarkNNRows(b *testing.B) {
	f := newScanFixture(b, 200_000, 8, 1)
	q := f.qs[:f.dim]
	rng := rand.New(rand.NewSource(2))
	var rows []int32
	for i := 0; i < f.n; i++ {
		if rng.Intn(10) == 0 {
			rows = append(rows, int32(i))
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(rows))), "ns/row")
	}
	b.Run("f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NNRows(f.data, f.dim, q, rows)
		}
		report(b)
	})
	b.Run("f32", func(b *testing.B) {
		bnd := F32Bounds(f.dim, f.maxAbs)
		var sl Shortlist
		for i := 0; i < b.N; i++ {
			sl.Reset(bnd)
			NNRows32(f.data32, f.dim, f.qs32[:f.dim], rows, &sl)
			NNRows(f.data, f.dim, q, sl.Finish())
		}
		report(b)
	})
	b.Run("q8", func(b *testing.B) {
		bnd := Q8Bounds(f.dim, f.par.ErrBound())
		var lut Q8LUT
		var sl Shortlist
		for i := 0; i < b.N; i++ {
			BuildQ8LUT(f.par, q, &lut)
			sl.Reset(bnd)
			NNRowsQ8(f.codes, f.dim, &lut, rows, &sl)
			NNRows(f.data, f.dim, q, sl.Finish())
		}
		report(b)
	})
}

func BenchmarkNNBatch(b *testing.B) {
	const nq = 64
	f := newScanFixture(b, 1_000_000, 8, nq)
	b.Run("f64-seq", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 8 * nq))
		for i := 0; i < b.N; i++ {
			for qi := 0; qi < nq; qi++ {
				NNRange(f.data, f.dim, f.qs[qi*f.dim:(qi+1)*f.dim], 0, f.n)
			}
		}
	})
	best := make([]int32, nq)
	best2 := make([]float64, nq)
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 8 * nq))
		for i := 0; i < b.N; i++ {
			NNBatch(f.data, f.dim, f.qs, 0, f.n, best, best2)
		}
	})
}

// BenchmarkTopKScan measures the flat k=10 top-k batch the harness's top-k
// probe times: 64 queries over a 200k×8 block.
func BenchmarkTopKScan(b *testing.B) {
	const nq, k = 64, 10
	f := newScanFixture(b, 200_000, 8, nq)
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 8 * nq))
		accs := make([]TopKAcc, nq)
		for i := 0; i < b.N; i++ {
			for qi := range accs {
				accs[qi].Reset(k)
			}
			TopKBatch(f.data, f.dim, f.qs, 0, f.n, accs)
		}
	})
}

// BenchmarkTopKSweep measures the coordinate-ordered k=10 scan the kNN-join
// reducers run per query, on the two bucket shapes of the join: a hash
// bucket of the bucketed pass (2 K rows) and a partition of the exact pass
// (75 K rows), drawn from eight Gaussian blobs with the queries drawn from
// the same blobs (odd axes stretched twofold, so the axes differ in range).
// One op is one query; rows/query is the distances evaluated, where the flat
// scan evaluates every row.
func BenchmarkTopKSweep(b *testing.B) {
	const nq, k = 256, 10
	for _, dim := range []int{4, 8} {
		for _, n := range []int{2_000, 75_000} {
			b.Run(fmt.Sprintf("dim%d/rows%d", dim, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				blob := func(rows int) []float64 {
					out := make([]float64, rows*dim)
					for r := 0; r < rows; r++ {
						centre := float64(rng.Intn(8)) * 25
						for j := 0; j < dim; j++ {
							out[r*dim+j] = centre*float64(1+j%2) + rng.NormFloat64()*3
						}
					}
					return out
				}
				data, qs := blob(n), blob(nq)
				axis := SweepAxis(data, dim)
				order, coord := SweepOrder(data, dim, axis, nil, nil)
				acc := NewTopKAcc(k)
				evaluated := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := qs[i%nq*dim:][:dim]
					acc.Reset(k)
					evaluated += TopKSweep(data, dim, q, axis, order, coord, acc)
				}
				b.ReportMetric(float64(evaluated)/float64(b.N), "rows/query")
			})
		}
	}
}
