package serve

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
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

// naiveSlot is the scalar slot rule, ⌊(a·p + b)/w⌋ summed in ascending
// coordinate order, with NaN and everything at or below −2⁶³ pinned to
// MinInt64 and everything at or above 2⁶³ to MaxInt64.
func naiveSlot(f lsh.Func, p []float64) int64 {
	var s float64
	for t, x := range p {
		s += f.A[t] * x
	}
	switch v := math.Floor((s + f.B) / f.W); {
	case v != v, v <= -0x1p63:
		return math.MinInt64
	case v >= 0x1p63:
		return math.MaxInt64
	default:
		return int64(v)
	}
}

// TestEngineIndexMatchesNaive rebuilds the bucket index the slow way — one
// naiveSlot per row and function, rows appended bucket by bucket — and
// requires the engine's interned index to hold exactly those buckets with
// exactly those rows (keyRows over its row keys), rows with a non-finite
// coordinate among them, and per-row bucket IDs that agree with the same
// grouping, for a full model and for a fleet sub-model.
func TestEngineIndexMatchesNaive(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		for _, m := range []int{3, 10} {
			mdl := blobModel(1501, 3, m, fleet)
			// A few rows with a non-finite coordinate: the index buckets them
			// like any other (the tree leaves them out).
			for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()} {
				mdl.Data[(7+300*i)*mdl.Dim+i%mdl.Dim] = v
			}
			e, err := NewEngine(mdl, PrecF64)
			if err != nil {
				t.Fatal(err)
			}
			layouts := mdl.Layouts()
			naive := map[string][]int32{}
			rowKey := make([]string, mdl.N()*m)
			for i := 0; i < mdl.N(); i++ {
				for j, g := range layouts.Groups {
					slots := make([]int64, len(g.Funcs))
					for k, f := range g.Funcs {
						slots[k] = naiveSlot(f, mdl.Row(i))
					}
					key := string(lsh.AppendKey(nil, j, slots))
					naive[key] = append(naive[key], int32(i))
					rowKey[i*m+j] = key
				}
			}
			if e.Buckets() != len(naive) || len(naive) < 2*m {
				t.Fatalf("fleet=%v M=%d: engine has %d buckets, naive grouping %d", fleet, m, e.Buckets(), len(naive))
			}
			for key, want := range naive {
				id, ok := e.ix.Lookup([]byte(key))
				if !ok {
					t.Fatalf("fleet=%v M=%d: bucket %s missing from the engine", fleet, m, lsh.KeyString(key))
				}
				if got := keyRows(e, id); !slices.Equal(got, want) {
					t.Fatalf("fleet=%v M=%d bucket %s: rows %v, want %v", fleet, m, lsh.KeyString(key), got, want)
				}
				if got := string(e.ix.Key(id)); got != key {
					t.Fatalf("fleet=%v M=%d: bucket %d is keyed %x, looked up by %x", fleet, m, id, got, key)
				}
			}
			if e.FleetIndexed() != fleet {
				t.Fatalf("fleet=%v M=%d: FleetIndexed() = %v", fleet, m, e.FleetIndexed())
			}
			for i, key := range rowKey {
				if got := string(e.ix.Key(e.ix.RowKeys[i])); got != key {
					t.Fatalf("M=%d row %d layout %d: recorded under %x, hashes to %x", m, i/m, i%m, got, key)
				}
			}
		}
	}
}

// bucketKeys returns every bucket's key, in ID order.
func bucketKeys(ix *lsh.Index) []string {
	keys := make([]string, ix.Len())
	for id := range keys {
		keys[id] = string(ix.Key(int32(id)))
	}
	return keys
}

// TestSuccessorMatchesNewEngine: the one-goroutine build a reload or a
// compaction runs beside live queries gives the engine NewEngine gives, as
// does the build at any worker count — bucket keys, row keys, box tree,
// and the q8 codes it derives — for a full model and a fleet sub-model, on
// a row count no worker count divides.
func TestSuccessorMatchesNewEngine(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		mdl := blobModel(1501, 3, 10, fleet)
		for _, prec := range []Precision{PrecF64, PrecQ8} {
			live, err := NewEngine(mdl, prec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := live.Successor(mdl, prec)
			if err != nil {
				t.Fatal(err)
			}
			engines := []*Engine{live}
			for _, workers := range []int{2, 3, 8} {
				e, err := build(mdl, prec, workers)
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, e)
			}
			for i, e := range engines {
				if !slices.Equal(bucketKeys(e.ix), bucketKeys(want.ix)) || !slices.Equal(e.ix.RowKeys, want.ix.RowKeys) ||
					!reflect.DeepEqual(e.tree, want.tree) ||
					!slices.Equal(e.q8, want.q8) || !slices.Equal(e.q8par.Min, want.q8par.Min) || !slices.Equal(e.q8par.Scale, want.q8par.Scale) {
					t.Fatalf("fleet=%v %s: engine %d is not the one-goroutine build", fleet, prec, i)
				}
			}
			if prec == PrecQ8 && want.q8 == nil {
				t.Fatalf("fleet=%v: the q8 build derived no codes", fleet)
			}
		}
	}
}

// TestScratchSharedAcrossEngines: the package-level scratch serves engines
// of different row counts at once — its filter reading one engine's row
// keys, then another's — and every answer is the one each engine gives
// alone.
func TestScratchSharedAcrossEngines(t *testing.T) {
	engines := make([]*Engine, 2)
	for i, n := range []int{300, 3000} {
		e, err := NewEngine(blobModel(n, 3, 4, false), PrecF64)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	rng := points.NewRand(8)
	qs := make([]points.Vector, 64)
	for i := range qs {
		qs[i] = points.Vector{rng.Float64() * 90, rng.Float64() * 90, rng.Float64() * 90}
	}
	want := make([][]Assignment, len(engines))
	for i, e := range engines {
		want[i], _, _ = e.AssignBatch(qs, false)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(engines)
				q := (g*20 + round) % len(qs)
				if got, _, err := engines[i].Assign(qs[q], false); err != nil || got != want[i][q] {
					t.Errorf("engine %d query %d: %+v (%v), alone %+v", i, q, got, err, want[i][q])
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkNewEngine times the index build — hash every row under every
// layout, intern the keys and build the box tree, on
// GOMAXPROCS goroutines — on a blob model at the benchmark harness's LSH
// shape, as a full model and as a fleet sub-model, at 50 000 rows and at
// serve-read's 200 000.
func BenchmarkNewEngine(b *testing.B) {
	for _, fleet := range []bool{false, true} {
		name := "full"
		if fleet {
			name = "fleet"
		}
		for _, n := range []int{50_000, 200_000} {
			b.Run(fmt.Sprintf("%s/rows=%d", name, n), func(b *testing.B) {
				mdl := blobModel(n, 8, 10, fleet)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := NewEngine(mdl, PrecF64); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
