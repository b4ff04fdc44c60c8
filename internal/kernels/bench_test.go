package kernels

import (
	"fmt"
	"testing"

	"repro/internal/points"
)

// The benchmarks below carry the dense-kernel numbers (DESIGN.md's
// before/after table): blocked kernels vs the naive reducer loops, and the
// matrix group decode vs per-record scalar decoding. Each pair kernel runs at dim 2 (the paper's 2-d
// sets), 4 (batch-knnjoin) and 8 (batch-lshddp) and reports ns/pair. Run with:
//
//	go test -bench 'Rho|Delta' -run xxx -benchmem ./internal/kernels/
//
// or `make bench-hot` for pinned benchtime/count suitable for benchstat.

const (
	benchN   = 4096
	benchDim = 2 // group-decode benchmark only; the pair kernels sweep benchDims
)

var benchDims = []int{2, 4, 8}

// benchDc2 puts the cutoff near the 40–55 % quantile of the pair distances
// randMatrix draws at every dim (d² is 50·χ²_dim), so the cutoff test is as
// unpredictable as it is on real partitions.
func benchDc2(dim int) float64 { return 40 * float64(dim) }

// reportPairs reports the kernel's cost per distance evaluation.
func reportPairs(b *testing.B, pairs int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(pairs)), "ns/pair")
}

const benchPairs = benchN * (benchN - 1) / 2

func BenchmarkRhoKernel(b *testing.B) {
	for _, dim := range benchDims {
		m := randMatrix(b, benchN, dim, 99)
		k := Kernel{Dc2: benchDc2(dim)}
		rho := make([]float64, benchN)
		b.Run(fmt.Sprintf("dim=%d/naive", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(rho)
				naiveRho(m, 0, benchN, k, rho)
			}
			reportPairs(b, benchPairs)
		})
		b.Run(fmt.Sprintf("dim=%d/tiled", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(rho)
				RhoAccumulate(m, 0, benchN, k, rho)
			}
			reportPairs(b, benchPairs)
		})
		// The LSH ρ reducers' walk: the same pairs, each also offered to
		// both rows' 8-nearest lists within d_c.
		b.Run(fmt.Sprintf("dim=%d/tiled+near", dim), func(b *testing.B) {
			cr := Credit{Layouts: 1, Near: &Near{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cr.Reset(benchN)
				cr.Near.Reset(benchN, 8, k.Dc2)
				Rho(m, []Block{Triangle(0, benchN)}, k, &cr)
			}
			reportPairs(b, benchPairs)
		})
	}
}

func BenchmarkDeltaKernel(b *testing.B) {
	for _, dim := range benchDims {
		m := randMatrix(b, benchN, dim, 101)
		acc := NewDeltaAcc(benchN, true)
		b.Run(fmt.Sprintf("dim=%d/naive", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.Reset(benchN, true)
				naiveDelta(m, 0, benchN, acc)
			}
			reportPairs(b, benchPairs)
		})
		b.Run(fmt.Sprintf("dim=%d/tiled", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.Reset(benchN, true)
				DeltaArgmin(m, 0, benchN, acc)
			}
			reportPairs(b, benchPairs)
		})
	}
}

// BenchmarkRhoGroupDecode measures the full reducer-group hot path — decode
// every wire record, then accumulate ρ — the way LSHRhoJob sees it. The
// scalar sub is the pre-PR shape (one RhoPoint + Vector allocation per
// record); the matrix sub batch-decodes into a pooled SoA matrix.
func BenchmarkRhoGroupDecode(b *testing.B) {
	const n = 512
	src := randMatrix(b, n, benchDim, 77)
	values := make([][]byte, n)
	for i := 0; i < n; i++ {
		values[i] = points.AppendRhoPoint(nil, points.RhoPoint{
			Point: points.Point{ID: src.ID(i), Pos: append(points.Vector(nil), src.Row(i)...)},
		})
	}
	k := Kernel{Dc2: 9.0}

	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			pts := make([]points.RhoPoint, 0, len(values))
			for _, v := range values {
				rp, _, err := points.DecodeRhoPoint(v)
				if err != nil {
					b.Fatal(err)
				}
				pts = append(pts, rp)
			}
			var nd int64
			for i := 0; i < len(pts); i++ {
				for j := i + 1; j < len(pts); j++ {
					d2 := points.SqDist(pts[i].Pos, pts[j].Pos)
					nd++
					if d2 < k.Dc2 {
						pts[i].Rho++
						pts[j].Rho++
					}
				}
			}
			_ = nd
		}
	})
	b.Run("matrix", func(b *testing.B) {
		rho := make([]float64, n)
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			m := points.GetMatrix()
			if err := points.DecodeRhoPointsInto(m, values); err != nil {
				b.Fatal(err)
			}
			clear(rho)
			RhoAccumulate(m, 0, m.N(), k, rho)
			points.PutMatrix(m)
		}
	})
}
