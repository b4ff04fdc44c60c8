package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/points"
)

// The adapters below spell the shapes the reducers used to call by name —
// one triangle or one cross, float64 / float32 / pooled, ρ into a plain
// []float64 — over the two entries that replaced them, so the property tests
// written against those shapes keep their oracles and assertions.

// rhoVia runs Rho over blocks with a one-column accumulator and adds the
// result into rho. Gaussian weights go straight into rho's cells, as
// RhoAccumulate does; with both unset (one cross block, a side only — EDDPC's
// old home-vs-visitor counting, which Rho no longer has: it credits both
// rows of every pair and EDDPC emits its home rows) the b side is dropped.
func rhoVia(m *points.Matrix, blocks []Block, k Kernel, rho []float64, s Scan, both bool) Ran {
	cr := Credit{Layouts: 1}
	direct := k.Gaussian && both
	if direct {
		cr.Sums = rho
	} else {
		cr.Reset(m.N(), k)
	}
	ran := Rho(m, blocks, k, &cr, s)
	for x := 0; !direct && x < m.N(); x++ {
		if both || (x >= blocks[0].ALo && x < blocks[0].AHi) {
			rho[x] += cr.Share(x, 0)
		}
	}
	return ran
}

var f32Scan = Scan{F32: true}

func rhoCross(m *points.Matrix, aLo, aHi, bLo, bHi int, k Kernel, rho []float64, both bool) int64 {
	return rhoVia(m, []Block{Cross(aLo, aHi, bLo, bHi)}, k, rho, Scan{}, both).Pairs
}

func rhoAccumulateAuto(m *points.Matrix, lo, hi int, k Kernel, rho []float64, p Parallel) int64 {
	return rhoVia(m, []Block{Triangle(lo, hi)}, k, rho, Scan{Parallel: p}, true).Pairs
}

func rhoAccumulate32(m *points.Matrix, lo, hi int, k Kernel, rho []float64) (pairs, rechecks int64) {
	ran := rhoVia(m, []Block{Triangle(lo, hi)}, k, rho, f32Scan, true)
	return ran.Pairs, ran.Rechecks
}

func rhoCross32(m *points.Matrix, aLo, aHi, bLo, bHi int, k Kernel, rho []float64, both bool) (pairs, rechecks int64) {
	ran := rhoVia(m, []Block{Cross(aLo, aHi, bLo, bHi)}, k, rho, f32Scan, both)
	return ran.Pairs, ran.Rechecks
}

func deltaCross(m *points.Matrix, aLo, aHi, bLo, bHi int, acc *DeltaAcc) int64 {
	return Delta(m, []Block{Cross(aLo, aHi, bLo, bHi)}, acc, Scan{}).Pairs
}

func deltaArgminAuto(m *points.Matrix, lo, hi int, acc *DeltaAcc, p Parallel) int64 {
	return Delta(m, []Block{Triangle(lo, hi)}, acc, Scan{Parallel: p}).Pairs
}

func deltaArgmin32(m *points.Matrix, lo, hi int, acc *DeltaAcc) (pairs, rechecks int64) {
	ran := Delta(m, []Block{Triangle(lo, hi)}, acc, f32Scan)
	return ran.Pairs, ran.Rechecks
}

func deltaCross32(m *points.Matrix, aLo, aHi, bLo, bHi int, acc *DeltaAcc) (pairs, rechecks int64) {
	ran := Delta(m, []Block{Cross(aLo, aHi, bLo, bHi)}, acc, f32Scan)
	return ran.Pairs, ran.Rechecks
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

// nearEqual is the documented tolerance of a Gaussian sum off the serial
// float64 scan: 1e-4 relative from promoted float32 distances, 1e-9 from
// the worker split.
func nearEqual(got, want, tol float64) bool {
	return sameFloat(got, want) || math.Abs(got-want) <= tol*(1+math.Abs(want))
}

// TestPairEntriesMatchNaive is the one differential table of Rho and Delta:
// block lists × {cutoff, Gaussian} × {f64, f32} × {serial, 3 workers} ×
// {1 column, M columns} against the naive loops, on well-behaved and on
// hostile rows (±Inf / NaN / −0 coordinates, tied, infinite and NaN
// densities), at sizes either side of one and three tiles and dims 1–9.
// Everything is bit-identical except Gaussian sums off the serial float64
// scan, which hold their documented tolerances on the well-behaved rows.
func TestPairEntriesMatchNaive(t *testing.T) {
	pool := Parallel{Threshold: 2, Workers: 3}
	scans := []Scan{{}, f32Scan, {Parallel: pool}, {F32: true, Parallel: pool}}
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
				for _, s := range scans {
					tag := fmt.Sprintf("dim=%d n=%d hostile=%v %s f32=%v pool=%v", dim, n, hostile, list.name, s.F32, s.Threshold > 0)
					want := Ran{Pairs: blockPairs(blocks)}
					if want.Pairs > 0 {
						want.Parallel = s.Threshold > 0
						want.Compact = s.F32 && !want.Parallel
					}
					checkRan := func(what string, ran Ran) {
						t.Helper()
						ran.Rechecks = 0
						if ran != want {
							t.Fatalf("%s %s: ran %+v, want %+v", tag, what, ran, want)
						}
					}

					for _, k := range kernelsUnderTest(8 * float64(dim)) {
						exact := !k.Gaussian || s == Scan{}
						if !exact && hostile {
							continue // a tolerance on NaN and ±Inf sums says nothing
						}
						tol := 1e-9
						if want.Compact {
							tol = 1e-4
						}
						for _, layouts := range []int{1, 4} {
							own := rng.Intn(layouts)
							ref := randCredit(rng, n, layouts, own)
							ref.Reset(n, k)
							naiveCredit(m, blocks, k, ref)
							got := &Credit{Layouts: layouts, Own: own, Sig: ref.Sig}
							got.Reset(n, k)
							checkRan("rho", Rho(m, blocks, k, got, s))
							assertCountsEqual(t, tag+" counts", got.Counts, ref.Counts)
							for i, v := range ref.Sums {
								if exact && !sameFloat(got.Sums[i], v) || !nearEqual(got.Sums[i], v, tol) {
									t.Fatalf("%s layouts=%d gaussian: sum[%d] = %v, want %v", tag, layouts, i, got.Sums[i], v)
								}
							}
							if layouts == 1 || own != 0 {
								continue
							}
							// The one-column arm is the own column of the
							// M-column arm: every pair, whatever it shares.
							one := &Credit{Layouts: 1}
							one.Reset(n, k)
							Rho(m, blocks, k, one, s)
							for r := 0; r < n; r++ {
								if a, b := one.Share(r, 0), got.Share(r, 0); exact && !sameFloat(a, b) || !nearEqual(a, b, tol) {
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
						checkRan("delta", Delta(m, blocks, got, s))
						assertDeltaEqual(t, fmt.Sprintf("%s max=%v", tag, withMax), got, ref)
					}
				}
			}
		}
	}
}

// TestPairEntriesRecheckTheBand plants pairs a hair either side of d_c and,
// for δ, pairs at all but equal distances from a sparser row: the compact
// scan must settle them exactly, and say that it did.
func TestPairEntriesRecheckTheBand(t *testing.T) {
	const n = 64
	values := make([][]byte, n)
	for i := range values {
		x := 1000 + float64(i/2)*50
		if i%2 == 1 {
			x += 3 * (1 + float64(i-n/2)*1e-9) // partner at d_c·(1 ± tiny)
		}
		values[i] = points.EncodeRhoPoint(points.RhoPoint{
			Point: points.Point{ID: int32(i), Pos: points.Vector{x, 7}}, Rho: float64(i % 5),
		})
	}
	m := new(points.Matrix)
	if err := points.DecodeRhoPointsInto(m, values); err != nil {
		t.Fatal(err)
	}
	blocks := []Block{Triangle(0, n/2), Cross(0, n/2, n/2, n), Triangle(n/2, n)}
	k := Kernel{Dc2: 9}
	for _, layouts := range []int{1, 3} {
		want := randCredit(points.NewRand(3), n, layouts, 0)
		want.Reset(n, k)
		naiveCredit(m, blocks, k, want)
		got := &Credit{Layouts: layouts, Sig: want.Sig}
		got.Reset(n, k)
		if ran := Rho(m, blocks, k, got, f32Scan); !ran.Compact || ran.Rechecks == 0 || ran.Rechecks >= ran.Pairs {
			t.Fatalf("layouts=%d: ran %+v, want a compact scan that re-checks some pairs and not all", layouts, ran)
		}
		assertCountsEqual(t, fmt.Sprintf("band layouts=%d", layouts), got.Counts, want.Counts)
	}
	ref, got := NewDeltaAcc(n, true), NewDeltaAcc(n, true)
	eachPair(blocks, func(a, b int) { naiveObserve(m, ref, a, b, points.SqDist(m.Row(a), m.Row(b))) })
	if ran := Delta(m, blocks, got, f32Scan); !ran.Compact || ran.Rechecks == 0 || ran.Rechecks >= ran.Pairs {
		t.Fatalf("delta: ran %+v, want a compact scan that re-checks some pairs and not all", ran)
	}
	assertDeltaEqual(t, "band delta", got, ref)
}

// TestPlanDecidesOnTheWholeGroup: the pool-or-compact rule reads the rows of
// the group, not of its first block. Basic-DDP's list over a local block
// smaller than the threshold and a group at or above it runs the pool, deals
// every worker cross tiles as well, and refuses F32; one row fewer and F32
// runs the compact scan.
func TestPlanDecidesOnTheWholeGroup(t *testing.T) {
	const h, n = 2 * tile, 6 * tile
	blocks := []Block{Triangle(0, h), Cross(h, n, 0, h)}
	s := Scan{F32: true, Parallel: Parallel{Threshold: n, Workers: 3}}
	ran, w := s.plan(n, blocks)
	if want := (Ran{Pairs: blockPairs(blocks), Parallel: true}); ran != want || w != 3 {
		t.Fatalf("plan(%d rows) = %+v on %d workers, want %+v on 3", n, ran, w, want)
	}
	for wi := 0; wi < w; wi++ {
		cross := 0
		forTiles(blocks, wi, w, func(aLo, _, _, _ int, _ bool) {
			if aLo >= h {
				cross++
			}
		})
		if cross == 0 {
			t.Fatalf("worker %d of %d was dealt no cross tile", wi, w)
		}
	}
	ran, w = s.plan(n-1, blocks)
	if want := (Ran{Pairs: blockPairs(blocks), Compact: true}); ran != want || w != 1 {
		t.Fatalf("plan(%d rows) = %+v on %d workers, want %+v on 1", n-1, ran, w, want)
	}
}
