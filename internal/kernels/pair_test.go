package kernels

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/points"
)

// The adapters below spell the shapes the reducers used to call by name —
// one triangle or one cross, ρ into a plain []float64 — over the two entries
// that replaced them, so the property tests written against those shapes
// keep their oracles and assertions.

// rhoVia runs Rho over blocks with a one-column accumulator and adds the
// result into rho. Gaussian weights go straight into rho's cells, as
// RhoAccumulate does; with both unset (one cross block, a side only — EDDPC's
// old home-vs-visitor counting, which Rho no longer has: it credits both
// rows of every pair and EDDPC emits its home rows) the b side is dropped.
func rhoVia(m *points.Matrix, blocks []Block, k Kernel, rho []float64, both bool) int64 {
	cr := Credit{Layouts: 1}
	direct := k.Gaussian && both
	if direct {
		cr.Sums = rho
	} else {
		cr.Reset(m.N(), k)
	}
	nd := Rho(m, blocks, k, &cr)
	for x := 0; !direct && x < m.N(); x++ {
		if both || (x >= blocks[0].ALo && x < blocks[0].AHi) {
			rho[x] += cr.Share(x, 0)
		}
	}
	return nd
}

func rhoCross(m *points.Matrix, aLo, aHi, bLo, bHi int, k Kernel, rho []float64, both bool) int64 {
	return rhoVia(m, []Block{Cross(aLo, aHi, bLo, bHi)}, k, rho, both)
}

func deltaCross(m *points.Matrix, aLo, aHi, bLo, bHi int, acc *DeltaAcc) int64 {
	return Delta(m, []Block{Cross(aLo, aHi, bLo, bHi)}, acc)
}

// pairLists are the block lists the differential table runs over an n-row
// group: nothing, only empty blocks, the whole triangle, Basic-DDP's list
// (local triangle, then visitors × local — the a side above the b side),
// EDDPC's (home triangle, then home × visitors) and a pair-once reducer's.
func pairLists(rng *points.Rand, n int) []pairList {
	h := n / 3
	return []pairList{
		{"none", nil},
		{"empty", []Block{Triangle(h, h), Cross(0, 0, h, n), Cross(0, h, n, n), Triangle(n-1, n)}},
		{"triangle", []Block{Triangle(0, n)}},
		{"basic", []Block{Triangle(0, h), Cross(h, n, 0, h)}},
		{"eddpc", []Block{Triangle(0, h), Cross(0, h, h, n)}},
		{"owned", randBlocks(rng, n)},
	}
}

type pairList struct {
	name   string
	blocks []Block
}

// TestPairEntriesMatchNaive is the one differential table of Rho and Delta:
// block lists × {cutoff, Gaussian} × {1 column, M columns} against the naive
// loops, on well-behaved and on hostile rows (±Inf / NaN / −0 coordinates,
// tied, infinite and NaN densities), at sizes either side of one and three
// tiles and dims 1–9. Everything is bit-identical.
func TestPairEntriesMatchNaive(t *testing.T) {
	sizes := []int{tile - 1, tile + 1, 3*tile - 1, 3*tile + 1}
	rng := points.NewRand(17)
	for dim := 1; dim <= 9; dim++ {
		n := sizes[dim%len(sizes)]
		for _, hostile := range []bool{false, true} {
			m := randMatrix(t, n, dim, int64(dim))
			if hostile {
				m = hostileMatrix(t, n, dim, int64(dim))
			}
			for _, list := range pairLists(rng, n) {
				blocks := list.blocks
				tag := fmt.Sprintf("dim=%d n=%d hostile=%v %s", dim, n, hostile, list.name)
				want := blockPairs(blocks)

				for _, k := range kernelsUnderTest(8 * float64(dim)) {
					for _, layouts := range []int{1, 4} {
						own := rng.Intn(layouts)
						ref := randCredit(rng, n, layouts, own)
						ref.Reset(n, k)
						naiveCredit(m, blocks, k, ref)
						got := &Credit{Layouts: layouts, Own: own, Sig: ref.Sig}
						got.Reset(n, k)
						if nd := Rho(m, blocks, k, got); nd != want {
							t.Fatalf("%s rho: %d evaluations, list holds %d pairs", tag, nd, want)
						}
						assertCountsEqual(t, tag+" counts", got.Counts, ref.Counts)
						assertBitsEqual(t, fmt.Sprintf("%s layouts=%d gaussian", tag, layouts), got.Sums, ref.Sums)
						if layouts == 1 || own != 0 {
							continue
						}
						// The one-column arm is the own column of the
						// M-column arm: every pair, whatever it shares.
						one := &Credit{Layouts: 1}
						one.Reset(n, k)
						Rho(m, blocks, k, one)
						for r := 0; r < n; r++ {
							if a, b := one.Share(r, 0), got.Share(r, 0); !sameFloat(a, b) {
								t.Fatalf("%s: one-column ρ[%d] = %v, own column of %d = %v", tag, r, a, layouts, b)
							}
						}
					}
				}

				for _, withMax := range []bool{false, true} {
					ref, got := NewDeltaAcc(n, withMax), NewDeltaAcc(n, withMax)
					eachPair(blocks, func(a, b int) {
						naiveObserve(m, ref, a, b, points.SqDist(m.Row(a), m.Row(b)))
					})
					if nd := Delta(m, blocks, got); nd != want {
						t.Fatalf("%s delta: %d evaluations, list holds %d pairs", tag, nd, want)
					}
					assertDeltaEqual(t, fmt.Sprintf("%s max=%v", tag, withMax), got, ref)
				}
			}
		}
	}
}

// TestNearMatchesNaive: with Credit.Near set, a ρ walk keeps for every row
// the k best partners below the bound in (d², ID) order among the list's
// pairs, offered both ways round, on every block list, kernel and column
// count, hostile rows included — and credits bit for bit what it credits
// without lists. k = 3 is far below the partner counts, so lists evict.
func TestNearMatchesNaive(t *testing.T) {
	const k = 3
	rng := points.NewRand(29)
	for dim := 1; dim <= 9; dim += 2 {
		n := []int{tile - 1, tile + 1, 3*tile + 1}[dim%3]
		bound := 8 * float64(dim)
		for _, hostile := range []bool{false, true} {
			m := randMatrix(t, n, dim, int64(dim))
			if hostile {
				m = hostileMatrix(t, n, dim, int64(dim))
			}
			ids := m.IDs()
			for _, list := range pairLists(rng, n) {
				tag := fmt.Sprintf("dim=%d n=%d hostile=%v %s", dim, n, hostile, list.name)
				want := make([][]TopKEntry, n)
				eachPair(list.blocks, func(a, b int) {
					if d2 := points.SqDist(m.Row(a), m.Row(b)); d2 < bound {
						want[a] = append(want[a], TopKEntry{Row: ids[b], D2: d2})
						want[b] = append(want[b], TopKEntry{Row: ids[a], D2: d2})
					}
				})
				for r, w := range want {
					slices.SortFunc(w, func(x, y TopKEntry) int {
						if topkWorse(x, y) {
							return 1
						}
						if topkWorse(y, x) {
							return -1
						}
						return 0
					})
					want[r] = w[:min(len(w), k)]
				}
				for _, kern := range kernelsUnderTest(bound) {
					for _, layouts := range []int{1, 4} {
						plain := randCredit(rng, n, layouts, rng.Intn(layouts))
						plain.Reset(n, kern)
						Rho(m, list.blocks, kern, plain)
						got := &Credit{Layouts: layouts, Own: plain.Own, Sig: plain.Sig, Near: &Near{}}
						got.Reset(n, kern)
						got.Near.Reset(n, k, bound)
						Rho(m, list.blocks, kern, got)
						assertCountsEqual(t, tag+" counts", got.Counts, plain.Counts)
						assertBitsEqual(t, tag+" sums", got.Sums, plain.Sums)
						for r := range want {
							if l := got.Near.List(r); !slices.Equal(l, want[r]) {
								t.Fatalf("%s gaussian=%v layouts=%d: row %d keeps %v, want %v", tag, kern.Gaussian, layouts, r, l, want[r])
							}
						}
					}
				}
			}
		}
	}
}
