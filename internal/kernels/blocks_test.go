package kernels

import (
	"fmt"
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

// TestForTilesPartitionsPairs: the tiles of the walk together hold every
// pair of the list exactly once, and every row is shown its partners in
// ascending order.
func TestForTilesPartitionsPairs(t *testing.T) {
	rng := points.NewRand(7)
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(4*tile)
		blocks := randBlocks(rng, n)
		want := map[[2]int]int{}
		eachPair(blocks, func(a, b int) { want[[2]int{a, b}]++ })
		got := map[[2]int]int{}
		last := make([]int, n)
		forTiles(blocks, func(aLo, aHi, bLo, bHi int, diag bool) {
			if aHi-aLo > tile || bHi-bLo > tile {
				t.Fatalf("tile [%d,%d)×[%d,%d) exceeds %d rows", aLo, aHi, bLo, bHi, tile)
			}
			eachPair([]Block{{aLo, aHi, bLo, bHi, diag}}, func(a, b int) {
				got[[2]int{a, b}]++
				if b < last[a] || a < last[b] {
					t.Fatalf("pair (%d,%d) arrives after a later partner", a, b)
				}
				last[a], last[b] = b, a
			})
		})
		if len(got) != len(want) {
			t.Fatalf("%d distinct pairs visited, want %d", len(got), len(want))
		}
		for p, c := range got {
			if c != want[p] {
				t.Fatalf("pair %v visited %d times, listed %d times", p, c, want[p])
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
// below d_c counts for both rows under the own layout and under each later
// layout whose signature the two rows share.
func naiveCredit(m *points.Matrix, blocks []Block, k Kernel, cr *Credit) {
	n := m.N()
	eachPair(blocks, func(a, b int) {
		if !(points.SqDist(m.Row(a), m.Row(b)) < k.Dc2) {
			return // NaN distances count for no one
		}
		for l := cr.Own; l < cr.Layouts; l++ {
			if l > cr.Own && cr.Sig[l*n+a] != cr.Sig[l*n+b] {
				continue
			}
			cr.Counts[l*n+a]++
			cr.Counts[l*n+b]++
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
		k := Kernel{Dc2: 30}
		want := randCredit(points.NewRand(int64(trial)), n, layouts, own)
		want.Reset(n)
		naiveCredit(m, blocks, k, want)

		got := &Credit{Layouts: layouts, Own: own, Sig: want.Sig}
		got.Reset(n)
		if nd := Rho(m, blocks, k, got); nd != blockPairs(blocks) {
			t.Fatalf("%s: %d evaluations, list holds %d pairs", tag, nd, blockPairs(blocks))
		}
		assertCountsEqual(t, tag, got.Counts, want.Counts)
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
		if nd := Delta(m, blocks, got); nd != blockPairs(blocks) {
			t.Fatalf("%s: %d evaluations, list holds %d pairs", tag, nd, blockPairs(blocks))
		}
		assertDeltaEqual(t, tag, got, want)
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
