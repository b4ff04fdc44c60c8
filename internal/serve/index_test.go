package serve

import (
	"math"
	"slices"
	"testing"

	"repro/internal/lsh"
	"repro/internal/model"
	"repro/internal/points"
)

// blobModel hand-builds a valid model of n points in three Gaussian blobs,
// bucketed under m layouts of 3 functions. With rowIDs it is shaped like a
// fleet sub-model (every local row carries a global ID), which switches the
// engine's fleet index on.
func blobModel(n, dim, m int, rowIDs bool) *model.Model {
	rng := points.NewRand(11)
	mdl := &model.Model{
		Name: "index-test", Dim: dim, Dc: 1,
		LSH:    model.Params{Seed: 5, M: m, Pi: 3, W: 6},
		Data:   make([]float64, 0, n*dim),
		Rho:    make([]float64, n),
		Labels: make([]int32, n),
		Peaks:  []int32{0, 1, 2},
		Border: []float64{0, 0, 0},
	}
	for i := 0; i < n; i++ {
		c := i % 3
		mdl.Labels[i] = int32(c)
		mdl.Rho[i] = rng.Float64()
		for t := 0; t < dim; t++ {
			mdl.Data = append(mdl.Data, float64(40*c)+rng.NormFloat64()*4)
		}
		if rowIDs {
			mdl.RowIDs = append(mdl.RowIDs, int32(3*i+1))
		}
	}
	return mdl
}

// TestEngineIndexMatchesNaive rebuilds the bucket index the slow way — one
// Func.Hash per row and function, rows appended bucket by bucket — and
// requires the engine's interned, counting-sorted CSR index to hold exactly
// those buckets with exactly those rows, each bucket sorted on the engine's
// sweep axis with the rows that have no finite coordinate there behind all
// the others, for a full model and for a fleet sub-model (whose per-row
// bucket IDs and posting-aligned signatures must agree with the same
// grouping).
func TestEngineIndexMatchesNaive(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		for _, m := range []int{3, 10} {
			mdl := blobModel(1501, 3, m, fleet)
			// A few rows off the sweep axis: the index must park them, and no
			// query may ever have their distance evaluated.
			axis := mdl.Layouts().BuildIndex(mdl.Data, mdl.N(), nil).WidestAxis(mdl.Data, mdl.Dim)
			for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()} {
				mdl.Data[(7+300*i)*mdl.Dim+axis] = v
			}
			e, err := NewEngine(mdl, PrecF64)
			if err != nil {
				t.Fatal(err)
			}
			if e.axis != axis {
				t.Fatalf("fleet=%v M=%d: four planted rows moved the sweep axis from %d to %d", fleet, m, axis, e.axis)
			}
			layouts := mdl.Layouts()
			naive := map[string][]int32{}
			rowKey := make([]string, mdl.N()*m)
			for i := 0; i < mdl.N(); i++ {
				for j, g := range layouts.Groups {
					slots := make([]int64, len(g.Funcs))
					for k, f := range g.Funcs {
						slots[k] = f.Hash(mdl.Row(i))
					}
					key := string(lsh.AppendKey(nil, j, slots))
					naive[key] = append(naive[key], int32(i))
					rowKey[i*m+j] = key
				}
			}
			if e.Buckets() != len(naive) || len(naive) < 2*m {
				t.Fatalf("fleet=%v M=%d: engine has %d buckets, naive grouping %d", fleet, m, e.Buckets(), len(naive))
			}
			if got := len(e.ix.Rows); got != mdl.N()*m {
				t.Fatalf("fleet=%v M=%d: %d postings, want n·M = %d", fleet, m, got, mdl.N()*m)
			}
			for key, want := range naive {
				id, ok := e.ix.Lookup([]byte(key))
				if !ok {
					t.Fatalf("fleet=%v M=%d: bucket %s missing from the engine", fleet, m, lsh.KeyString(key))
				}
				got := e.ix.Bucket(id)
				sorted := slices.Clone(got)
				slices.Sort(sorted)
				if !slices.Equal(sorted, want) {
					t.Fatalf("fleet=%v M=%d bucket %s: rows %v, want the set %v", fleet, m, lsh.KeyString(key), got, want)
				}
				for p, r := range got {
					c := mdl.Data[int(r)*mdl.Dim+axis]
					if math.IsNaN(c) || math.IsInf(c, 0) {
						c = math.Inf(1) // what sorts a row behind every finite one
					}
					if e.coord[r] != c {
						t.Fatalf("fleet=%v M=%d: row %d sorts at %v, want %v", fleet, m, r, e.coord[r], c)
					}
					if p > 0 && e.coord[got[p-1]] > e.coord[r] {
						t.Fatalf("fleet=%v M=%d bucket %s: posting %d (row %d at %v) follows row %d at %v", fleet, m,
							lsh.KeyString(key), p, r, e.coord[r], got[p-1], e.coord[got[p-1]])
					}
				}
				if e.ix.Keys[id] != key {
					t.Fatalf("fleet=%v M=%d: bucket %d is keyed %x, looked up by %x", fleet, m, id, e.ix.Keys[id], key)
				}
			}
			if e.FleetIndexed() != fleet {
				t.Fatalf("fleet=%v M=%d: FleetIndexed() = %v", fleet, m, e.FleetIndexed())
			}
			if !fleet {
				continue
			}
			for i, key := range rowKey {
				if got := e.ix.Keys[e.ix.RowKeys[i]]; got != key {
					t.Fatalf("M=%d row %d layout %d: recorded under %x, hashes to %x", m, i/m, i%m, got, key)
				}
			}
			for p, r := range e.ix.Rows {
				var sig uint64
				for j := 0; j < m; j++ {
					sig |= sigField(e.ix.RowKeys[int(r)*m+j]) << uint(6*j)
				}
				if e.bucketSigs[p] != sig {
					t.Fatalf("M=%d posting %d (row %d): signature %x, want %x", m, p, r, e.bucketSigs[p], sig)
				}
			}
		}
	}
}

// BenchmarkNewEngine times the index build — hash every row under every
// layout, intern the keys, counting-sort the postings — on a blob model at
// the benchmark harness's LSH shape, as a full model and as a fleet
// sub-model (which adds the per-row key table and the signature mirror).
func BenchmarkNewEngine(b *testing.B) {
	for _, fleet := range []bool{false, true} {
		name := "full"
		if fleet {
			name = "fleet"
		}
		mdl := blobModel(50_000, 8, 10, fleet)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewEngine(mdl, PrecF64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
