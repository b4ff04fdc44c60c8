package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/points"
)

// randBlocks lists, in ascending row order, some of the blocks of an n-row
// group cut at random boundaries — triangles and crosses, a few of them
// wider than a tile, some adjacent, some empty — the shape of a pair-once
// reducer's owned list.
func randBlocks(rng *points.Rand, n int) []Block {
	cuts := []int{0}
	for cuts[len(cuts)-1] < n {
		step := 1 + rng.Intn(40)
		if rng.Intn(6) == 0 {
			step += tile + rng.Intn(tile)
		}
		cuts = append(cuts, min(cuts[len(cuts)-1]+step, n))
	}
	var blocks []Block
	for g := 0; g+1 < len(cuts); g++ {
		if rng.Intn(3) == 0 {
			blocks = append(blocks, Triangle(cuts[g], cuts[g+1]))
		}
		for h := g + 1; h+1 < len(cuts); h++ {
			if rng.Intn(3) == 0 {
				blocks = append(blocks, Cross(cuts[g], cuts[g+1], cuts[h], cuts[h+1]))
			}
		}
		if rng.Intn(8) == 0 {
			blocks = append(blocks, Cross(cuts[g], cuts[g], cuts[g], cuts[g+1])) // empty
		}
	}
	return blocks
}

// eachPair visits the pairs of blocks in the naive order: block by block, a
// outer, b inner.
func eachPair(blocks []Block, f func(a, b int)) {
	for _, blk := range blocks {
		for a := blk.ALo; a < blk.AHi; a++ {
			bLo := blk.BLo
			if blk.Diag {
				bLo = a + 1
			}
			for b := bLo; b < blk.BHi; b++ {
				f(a, b)
			}
		}
	}
}

// TestForTilesPartitionsPairs: whatever the worker count, the workers'
// tiles together hold every pair of the list exactly once, and the serial
// walk shows every row its partners in ascending order.
func TestForTilesPartitionsPairs(t *testing.T) {
	rng := points.NewRand(7)
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(4*tile)
		blocks := randBlocks(rng, n)
		want := map[[2]int]int{}
		eachPair(blocks, func(a, b int) { want[[2]int{a, b}]++ })
		for _, w := range []int{1, 2, 3, 7} {
			got := map[[2]int]int{}
			for wi := 0; wi < w; wi++ {
				last := make([]int, n)
				forTiles(blocks, wi, w, func(aLo, aHi, bLo, bHi int, diag bool) {
					if aHi-aLo > tile || bHi-bLo > tile {
						t.Fatalf("tile [%d,%d)×[%d,%d) exceeds %d rows", aLo, aHi, bLo, bHi, tile)
					}
					eachPair([]Block{{aLo, aHi, bLo, bHi, diag}}, func(a, b int) {
						got[[2]int{a, b}]++
						if w == 1 && (b < last[a] || a < last[b]) {
							t.Fatalf("pair (%d,%d) arrives after a later partner", a, b)
						}
						last[a], last[b] = b, a
					})
				})
			}
			if len(got) != len(want) {
				t.Fatalf("w=%d: %d distinct pairs visited, want %d", w, len(got), len(want))
			}
			for p, c := range got {
				if c != want[p] {
					t.Fatalf("w=%d: pair %v visited %d times, listed %d times", w, p, c, want[p])
				}
			}
		}
		if int64(len(want)) != blockPairs(blocks) {
			t.Fatalf("blockPairs = %d, list holds %d", blockPairs(blocks), len(want))
		}
	}
}

// randCredit draws bucket ids from a small range per layout, so that most
// pairs share some later layouts and not others.
func randCredit(rng *points.Rand, n, layouts, own int) *Credit {
	cr := &Credit{Layouts: layouts, Own: own, Sig: make([]int32, n*layouts)}
	for i := range cr.Sig {
		cr.Sig[i] = int32(rng.Intn(3))
	}
	return cr
}

// naiveCredit is the definition Rho implements: every pair of the list
// adds its weight to both rows under the own layout and under each later
// layout whose signature the two rows share.
func naiveCredit(m *points.Matrix, blocks []Block, k Kernel, cr *Credit) {
	n := m.N()
	eachPair(blocks, func(a, b int) {
		w := k.Weight(points.SqDist(m.Row(a), m.Row(b)))
		if w == 0 {
			return
		}
		for l := cr.Own; l < cr.Layouts; l++ {
			if l > cr.Own && cr.Sig[l*n+a] != cr.Sig[l*n+b] {
				continue
			}
			if k.Gaussian {
				cr.Sums[l*n+a] += w
				cr.Sums[l*n+b] += w
			} else {
				cr.Counts[l*n+a]++
				cr.Counts[l*n+b]++
			}
		}
	})
}

func TestRhoBlocksMatchesNaive(t *testing.T) {
	rng := points.NewRand(11)
	for trial := 0; trial < 12; trial++ {
		n, dim, layouts := 100+rng.Intn(3*tile), 1+rng.Intn(8), 1+rng.Intn(8)
		own := rng.Intn(layouts)
		m := randMatrix(t, n, dim, int64(trial))
		blocks := randBlocks(rng, n)
		tag := fmt.Sprintf("trial %d n=%d dim=%d own=%d/%d", trial, n, dim, own, layouts)
		for _, k := range kernelsUnderTest(30) {
			want := randCredit(points.NewRand(int64(trial)), n, layouts, own)
			want.Reset(n, k)
			naiveCredit(m, blocks, k, want)

			got := &Credit{Layouts: layouts, Own: own, Sig: want.Sig}
			got.Reset(n, k)
			if nd := Rho(m, blocks, k, got, Scan{}).Pairs; nd != blockPairs(blocks) {
				t.Fatalf("%s: %d evaluations, list holds %d pairs", tag, nd, blockPairs(blocks))
			}
			// Serial: the same additions in the same per-cell order.
			assertBitsEqual(t, tag+" serial sums", got.Sums, want.Sums)
			assertCountsEqual(t, tag+" serial", got.Counts, want.Counts)

			par := &Credit{Layouts: layouts, Own: own, Sig: want.Sig}
			par.Reset(n, k)
			Rho(m, blocks, k, par, Scan{Parallel: Parallel{Threshold: 1, Workers: 3}})
			assertCountsEqual(t, tag+" parallel", par.Counts, want.Counts)
			for i, v := range want.Sums {
				if diff := math.Abs(par.Sums[i] - v); diff > 1e-12*math.Abs(v) {
					t.Fatalf("%s parallel: sum[%d] = %v, serial %v", tag, i, par.Sums[i], v)
				}
			}

			compact := &Credit{Layouts: layouts, Own: own, Sig: want.Sig}
			compact.Reset(n, k)
			if nd := Rho(m, blocks, k, compact, Scan{F32: true}).Pairs; nd != blockPairs(blocks) {
				t.Fatalf("%s f32: %d evaluations", tag, nd)
			}
			assertCountsEqual(t, tag+" f32", compact.Counts, want.Counts)
			for i, v := range want.Sums {
				if diff := math.Abs(compact.Sums[i] - v); diff > 1e-4*(1+v) {
					t.Fatalf("%s f32: sum[%d] = %v, f64 %v", tag, i, compact.Sums[i], v)
				}
			}
		}
	}
}

func assertCountsEqual(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: count[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestRho32BandIsRechecked plants pairs a hair either side of d_c, where
// the compact distance cannot decide: the counts must still be exact.
func TestRho32BandIsRechecked(t *testing.T) {
	const n = 64
	values := make([][]byte, n)
	for i := range values {
		x := 1000 + float64(i/2)*50
		if i%2 == 1 {
			x += 3 * (1 + float64(i-n/2)*1e-9) // partner at d_c·(1 ± tiny)
		}
		values[i] = points.EncodePoint(points.Point{ID: int32(i), Pos: points.Vector{x, 7}})
	}
	m := new(points.Matrix)
	if err := points.DecodePointsInto(m, values); err != nil {
		t.Fatal(err)
	}
	k := Kernel{Dc2: 9}
	blocks := []Block{Triangle(0, n)}
	want := &Credit{Layouts: 2, Sig: make([]int32, 2*n)}
	want.Reset(n, k)
	naiveCredit(m, blocks, k, want)
	got := &Credit{Layouts: 2, Sig: want.Sig}
	got.Reset(n, k)
	if Rho(m, blocks, k, got, Scan{F32: true}).Rechecks == 0 {
		t.Fatal("no pair fell in the undecided band; the fixture tests nothing")
	}
	assertCountsEqual(t, "band", got.Counts, want.Counts)
}

func TestDeltaBlocksMatchesNaive(t *testing.T) {
	rng := points.NewRand(13)
	for trial := 0; trial < 12; trial++ {
		n, dim := 100+rng.Intn(3*tile), 1+rng.Intn(8)
		m := randMatrix(t, n, dim, int64(100+trial))
		if trial%3 == 0 { // a lattice: exact ties everywhere
			m = latticeMatrix(t, n, dim, int64(trial))
		}
		blocks := randBlocks(rng, n)
		tag := fmt.Sprintf("trial %d n=%d dim=%d", trial, n, dim)

		want := NewDeltaAcc(n, false)
		eachPair(blocks, func(a, b int) {
			naiveObserve(m, want, a, b, points.SqDist(m.Row(a), m.Row(b)))
		})
		got := NewDeltaAcc(n, false)
		if nd := Delta(m, blocks, got, Scan{}).Pairs; nd != blockPairs(blocks) {
			t.Fatalf("%s: %d evaluations, list holds %d pairs", tag, nd, blockPairs(blocks))
		}
		assertDeltaEqual(t, tag+" serial", got, want)

		par := NewDeltaAcc(n, false)
		Delta(m, blocks, par, Scan{Parallel: Parallel{Threshold: 1, Workers: 3}})
		assertDeltaEqual(t, tag+" parallel", par, want)

		compact := NewDeltaAcc(n, false)
		Delta(m, blocks, compact, Scan{F32: true})
		assertDeltaEqual(t, tag+" f32", compact, want)
	}
}

// latticeMatrix is randMatrix on small integer coordinates.
func latticeMatrix(t testing.TB, n, dim int, seed int64) *points.Matrix {
	t.Helper()
	rng := points.NewRand(seed)
	values := make([][]byte, n)
	for i := range values {
		pos := make(points.Vector, dim)
		for j := range pos {
			pos[j] = float64(rng.Intn(4))
		}
		values[i] = points.EncodeRhoPoint(points.RhoPoint{
			Point: points.Point{ID: int32(i), Pos: pos}, Rho: float64(rng.Intn(3)),
		})
	}
	m := new(points.Matrix)
	if err := points.DecodeRhoPointsInto(m, values); err != nil {
		t.Fatal(err)
	}
	return m
}
