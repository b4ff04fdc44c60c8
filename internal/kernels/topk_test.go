package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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
				if k == 1 {
					gi, g2 := acc.Nearest()
					if wi, w2 := naiveNN(data, dim, q, allRows); gi != wi || g2 != w2 {
						t.Fatalf("dim %d: top-1 = (%d, %v), scalar oracle (%d, %v)", dim, gi, g2, wi, w2)
					}
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
				if k == 1 {
					gi, g2 := acc.Nearest()
					slices.Reverse(rows)
					if wi, w2 := naiveNN(data, dim, q, rows); gi != wi || g2 != w2 {
						t.Fatalf("dim %d: strided top-1 = (%d, %v), scalar oracle (%d, %v)", dim, gi, g2, wi, w2)
					}
				}
			}
		}
	}
}

// Any chunking of the scan range, and the tiled batch kernel at any batch
// size and range start, must land in a bit-identical final state.
func TestTopKChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dim, n := 3, 300
	data := randBlock(rng, n, dim, 5)
	qs := make([]float64, 64*dim)
	for i := range qs {
		qs[i] = rng.NormFloat64() * 5
	}
	for _, k := range []int{1, 8} {
		for qi := 0; qi < 7; qi++ {
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
					t.Fatalf("k %d query %d chunk %d: chunked scan diverged", k, qi, chunk)
				}
			}
		}
		for _, nq := range []int{1, 2, 17, 64} {
			for _, lo := range []int{0, nnTile + 1} {
				accs := make([]TopKAcc, nq)
				for i := range accs {
					accs[i].Reset(k)
				}
				TopKBatch(data, dim, qs[:nq*dim], lo, n, accs)
				for qi := range accs {
					flat := NewTopKAcc(k)
					TopKRange(data, dim, qs[qi*dim:(qi+1)*dim], lo, n, flat)
					if got, want := accs[qi].Append(nil), flat.Append(nil); !reflect.DeepEqual(got, want) {
						t.Fatalf("k %d nq %d lo %d query %d: TopKBatch diverged from TopKRange", k, nq, lo, qi)
					}
				}
			}
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
	if len(acc.ents) != 0 {
		t.Fatalf("all-overflow scan kept %d rows, want 0", len(acc.ents))
	}
	if thr := acc.Threshold(); !math.IsInf(thr, 1) {
		t.Fatalf("empty accumulator threshold = %v, want +Inf", thr)
	}
	if i, d2 := acc.Nearest(); i != -1 || !math.IsInf(d2, 1) {
		t.Fatalf("all-overflow scan: Nearest = (%d, %v), want (-1, +Inf)", i, d2)
	}
	// Nothing scanned at all: an empty range, an empty row list.
	acc.Reset(1)
	TopKRange(nil, dim, []float64{0, 0}, 0, 0, acc)
	TopKRows(nil, dim, []float64{0, 0}, nil, acc)
	if i, d2 := acc.Nearest(); i != -1 || !math.IsInf(d2, 1) || len(acc.ents) != 0 {
		t.Fatalf("empty scan: Nearest = (%d, %v), Len %d, want (-1, +Inf), 0", i, d2, len(acc.ents))
	}
}

// TestTopKHostileRows scans lattice rows salted with ±Inf, NaN, −0 and
// overflowing coordinates: exactly equal distances are everywhere — across
// the four-row blocks of a strip and across strips — and the kept set must
// equal the oracle's, ties resolved by the lowest row index, through the
// range, gathered (in shuffled order) and batched paths; rows whose
// distance is not finite never enter. At k = 1 the nearest row is also the
// scalar oracle's and the f32 shortlist's.
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
			for trial := range 21 {
				k := [3]int{1, 4, 7}[trial%3]
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
				gi, g2 := accs[0].Nearest()
				if wi, w2 := naiveNN(data, dim, q, asc); gi != wi || g2 != w2 {
					t.Fatalf("dim %d n %d: top-1 = (%d, %v), scalar oracle (%d, %v)", dim, n, gi, g2, wi, w2)
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
