package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Property tests for the top-k scan kernels. The contract under test: the
// kept set equals the sort-based oracle — finite distances sorted by
// (squared distance, row index), first k — regardless of observation order,
// tiling, or chunking; and the compact f32 scan plus exact re-rank is
// bit-identical to the pure float64 kernel.

// naiveTopK is the sort-based oracle over the listed rows.
func naiveTopK(data []float64, dim int, q []float64, rows []int32, k int) []TopKEntry {
	var all []TopKEntry
	for _, r := range rows {
		i := int(r)
		var d2 float64
		for j := 0; j < dim; j++ {
			d := q[j] - data[i*dim+j]
			d2 += d * d
		}
		if d2 < math.Inf(1) {
			all = append(all, TopKEntry{Row: r, D2: d2})
		}
	}
	for a := 1; a < len(all); a++ { // insertion sort: no ordering subtleties
		for b := a; b > 0 && topkWorse(all[b-1], all[b]); b-- {
			all[b-1], all[b] = all[b], all[b-1]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func randQuery(rng *rand.Rand, dim int) []float64 {
	q := make([]float64, dim)
	for j := range q {
		q[j] = rng.NormFloat64() * 10
	}
	return q
}

func TestTopKAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 2, 3, 7, 9, 12, 17} {
		n := 180 + dim%4                   // every n mod 4 remainder past the last full block
		data := randBlock(rng, n, dim, 10) // plants duplicates and near ties
		allRows := make([]int32, n)
		for i := range allRows {
			allRows[i] = int32(i)
		}
		acc := NewTopKAcc(1)
		for _, k := range []int{1, 3, 10, n, n + 17} {
			for trial := 0; trial < 20; trial++ {
				q := randQuery(rng, dim)
				want := naiveTopK(data, dim, q, allRows, k)

				acc.Reset(k)
				TopKRange(data, dim, q, 0, n, acc)
				if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d k %d: TopKRange = %v, want %v", dim, k, got, want)
				}

				// A strided subset, visited in descending order: the kept
				// set must not depend on observation order.
				var rows []int32
				for i := n - 1 - trial%3; i >= 0; i -= 3 {
					rows = append(rows, int32(i))
				}
				acc.Reset(k)
				TopKRows(data, dim, q, rows, acc)
				if got := acc.Append(nil); !reflect.DeepEqual(got, naiveTopK(data, dim, q, rows, k)) {
					t.Fatalf("dim %d k %d: TopKRows mismatch on strided subset", dim, k)
				}
			}
		}
	}
}

// Any chunking of the scan range, and the tiled batch kernel, must land in
// a bit-identical final state.
func TestTopKChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dim, n, k := 3, 300, 8
	data := randBlock(rng, n, dim, 5)
	nq := 7
	qs := make([]float64, nq*dim)
	for i := range qs {
		qs[i] = rng.NormFloat64() * 5
	}
	for qi := 0; qi < nq; qi++ {
		q := qs[qi*dim : (qi+1)*dim]
		flat := NewTopKAcc(k)
		TopKRange(data, dim, q, 0, n, flat)
		want := flat.Append(nil)
		for _, chunk := range []int{1, 7, nnTile - 1, nnTile, n} {
			acc := NewTopKAcc(k)
			for lo := 0; lo < n; lo += chunk {
				TopKRange(data, dim, q, lo, min(lo+chunk, n), acc)
			}
			if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d chunk %d: chunked scan diverged", qi, chunk)
			}
		}
	}
	accs := make([]TopKAcc, nq)
	for i := range accs {
		accs[i].Reset(k)
	}
	TopKBatch(data, dim, qs, 0, n, accs)
	for qi := range accs {
		flat := NewTopKAcc(k)
		TopKRange(data, dim, qs[qi*dim:(qi+1)*dim], 0, n, flat)
		if got, want := accs[qi].Append(nil), flat.Append(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: TopKBatch diverged from TopKRange", qi)
		}
	}
}

// Rows with non-finite distances (+Inf overflow, NaN from Inf−Inf) are
// ineligible, matching the NN kernels' "no finite distance" contract.
func TestTopKNonFiniteRows(t *testing.T) {
	dim, k := 2, 3
	data := []float64{
		0, 0, // row 0: finite
		math.Inf(1), 0, // row 1: d2 = +Inf
		math.Inf(1), math.Inf(1), // row 2: NaN vs an infinite query coord
		1, 1, // row 3: finite
	}
	acc := NewTopKAcc(k)
	TopKRange(data, dim, []float64{0, 1}, 0, 4, acc)
	got := acc.Append(nil)
	want := naiveTopK(data, dim, []float64{0, 1}, []int32{0, 1, 2, 3}, k)
	if !reflect.DeepEqual(got, want) || len(got) != 2 {
		t.Fatalf("mixed non-finite rows: got %v, want %v (len 2)", got, want)
	}
	// Query at +Inf: every distance is +Inf or NaN, nothing is kept.
	acc.Reset(k)
	TopKRange(data, dim, []float64{math.Inf(1), 0}, 0, 4, acc)
	if acc.Len() != 0 {
		t.Fatalf("all-overflow scan kept %d rows, want 0", acc.Len())
	}
	if thr := acc.Threshold(); !math.IsInf(thr, 1) {
		t.Fatalf("empty accumulator threshold = %v, want +Inf", thr)
	}
}

// Top-1 must agree exactly with the single-NN kernel.
func TestTopKMatchesNNAtK1(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dim := range []int{2, 5} {
		n := 150
		data := randBlock(rng, n, dim, 3)
		for trial := 0; trial < 30; trial++ {
			q := randQuery(rng, dim)
			bi, b2 := NNRange(data, dim, q, 0, n)
			acc := NewTopKAcc(1)
			TopKRange(data, dim, q, 0, n, acc)
			got := acc.Append(nil)
			if len(got) != 1 || int(got[0].Row) != bi || got[0].D2 != b2 {
				t.Fatalf("dim %d: top-1 %v, want (%d, %v)", dim, got, bi, b2)
			}
		}
	}
}

// TestTopKHostileRows is TestNNHostileRows for k neighbours: on lattice
// rows salted with non-finite coordinates the kept set must equal the
// oracle's — ties that straddle a four-row block or a strip resolved by the
// lowest row index — through the range, gathered and batched paths, and at
// k = 1 through the f32 shortlist.
func TestTopKHostileRows(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, dim := range []int{1, 2, 5, 8, 11} {
		for _, n := range []int{3, 4, 5, nnTile + 1, 2*nnTile + 2, 2*nnTile + 3} {
			data := latticeRows(rng, n, dim)
			asc := make([]int32, n)
			for i := range asc {
				asc[i] = int32(i)
			}
			shuffled := append([]int32(nil), asc...)
			rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			for _, k := range []int{1, 4, 7} {
				q := make([]float64, dim)
				for j := range q {
					q[j] = float64(rng.Intn(5))
				}
				want := naiveTopK(data, dim, q, asc, k)
				acc := NewTopKAcc(k)
				TopKRange(data, dim, q, 0, n, acc)
				if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d n %d k %d: TopKRange = %v, want %v", dim, n, k, got, want)
				}
				acc.Reset(k)
				TopKRows(data, dim, q, shuffled, acc)
				if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d n %d k %d: shuffled TopKRows = %v, want %v", dim, n, k, got, want)
				}
				accs := []TopKAcc{{}}
				accs[0].Reset(k)
				TopKBatch(data, dim, q, 0, n, accs)
				if got := accs[0].Append(nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d n %d k %d: TopKBatch = %v, want %v", dim, n, k, got, want)
				}
				if k != 1 {
					continue // the compact shortlist keeps the nearest row only
				}
				var sl Shortlist
				sl.Reset(F32Bounds(dim, 4)) // non-finite compact distances re-rank exactly
				NNRows32(toF32(data), dim, toF32(q), asc, &sl)
				acc.Reset(k)
				TopKRows(data, dim, q, sl.Finish(), acc)
				if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d n %d: f32 shortlist + re-rank = %v, want %v", dim, n, got, want)
				}
			}
		}
	}
}

// Append runs once per query per bucket in the kNN-join reducer: with room
// in dst it must not allocate (it once sorted through reflective
// sort.Slice), and the order is (distance, row) ascending.
func TestTopKAppendNoAlloc(t *testing.T) {
	acc := NewTopKAcc(10)
	data := randBlock(rand.New(rand.NewSource(45)), 300, 4, 3) // plants duplicate rows
	TopKRange(data, 4, []float64{0, 0, 0, 0}, 0, 300, acc)
	dst := make([]TopKEntry, 0, 10)
	if allocs := testing.AllocsPerRun(100, func() { dst = acc.Append(dst[:0]) }); allocs != 0 {
		t.Fatalf("Append allocated %v times per run with capacity in dst", allocs)
	}
	for i := 1; i < len(dst); i++ {
		if !topkWorse(dst[i], dst[i-1]) {
			t.Fatalf("Append order broken at %d: %v then %v", i, dst[i-1], dst[i])
		}
	}
}
