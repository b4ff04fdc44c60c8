package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/points"
)

// The tests in this file pin the package's central guarantee: the blocked
// kernels perform the same floating-point work in the same per-accumulator
// order as the naive reference loops they replaced, so their outputs are
// bit-identical — across dimensions, chunkings (a group fed as
// several contiguous ranges through one accumulator), and uneven tile
// remainders.

// randMatrix builds a RhoPoint matrix of n rows in dim dimensions through
// the wire codec, the same way a reducer receives it. Densities are drawn
// from a small integer range so ties exercise the ID tie-break rule.
func randMatrix(t testing.TB, n, dim int, seed int64) *points.Matrix {
	t.Helper()
	rng := points.NewRand(seed)
	values := make([][]byte, n)
	for i := 0; i < n; i++ {
		pos := make(points.Vector, dim)
		for j := range pos {
			pos[j] = rng.NormFloat64() * 5
		}
		values[i] = points.EncodeRhoPoint(points.RhoPoint{
			Point: points.Point{ID: int32(n - i), Pos: pos}, // non-dense IDs on purpose
			Rho:   float64(rng.Intn(4)),
		})
	}
	m := new(points.Matrix)
	if err := points.DecodeRhoPointsInto(m, values); err != nil {
		t.Fatal(err)
	}
	return m
}

// naiveRho is the pre-kernel reducer loop of core/lshddp.go and
// core/basic.go's diagonal pass.
func naiveRho(m *points.Matrix, lo, hi int, k Kernel, rho []float64) int64 {
	var nd int64
	for i := lo; i < hi; i++ {
		for j := i + 1; j < hi; j++ {
			nd++
			if points.SqDist(m.Row(i), m.Row(j)) < k.Dc2 {
				rho[i]++
				rho[j]++
			}
		}
	}
	return nd
}

// naiveRhoCross is core/basic.go's visitor-vs-local pass (a outer, b
// inner); with both=false it is eddpc's home-only counting.
func naiveRhoCross(m *points.Matrix, aLo, aHi, bLo, bHi int, k Kernel, rho []float64, both bool) int64 {
	var nd int64
	for a := aLo; a < aHi; a++ {
		for b := bLo; b < bHi; b++ {
			nd++
			if points.SqDist(m.Row(a), m.Row(b)) < k.Dc2 {
				rho[a]++
				if both {
					rho[b]++
				}
			}
		}
	}
	return nd
}

// naiveDelta is the pre-kernel δ reducer loop (strict-<, first candidate
// wins ties), with optional fallback-max tracking as in basic.go.
func naiveDelta(m *points.Matrix, lo, hi int, acc *DeltaAcc) int64 {
	var nd int64
	for i := lo; i < hi; i++ {
		for j := i + 1; j < hi; j++ {
			d2 := points.SqDist(m.Row(i), m.Row(j))
			nd++
			naiveObserve(m, acc, i, j, d2)
		}
	}
	return nd
}

func naiveDeltaCross(m *points.Matrix, aLo, aHi, bLo, bHi int, acc *DeltaAcc) int64 {
	var nd int64
	for a := aLo; a < aHi; a++ {
		for b := bLo; b < bHi; b++ {
			d2 := points.SqDist(m.Row(a), m.Row(b))
			nd++
			naiveObserve(m, acc, a, b, d2)
		}
	}
	return nd
}

// denserVals is dp.DenserVals, which these tests cannot import (dp imports
// kernels); TestDensityRankIsDenserVals holds the kernels' rank to dp's.
func denserVals(rhoJ, rhoI float64, j, i int32) bool {
	if rhoJ != rhoI {
		return rhoJ > rhoI
	}
	return j < i
}

func naiveObserve(m *points.Matrix, acc *DeltaAcc, i, j int, d2 float64) {
	if acc.Max2 != nil {
		if d2 > acc.Max2[i] {
			acc.Max2[i] = d2
		}
		if d2 > acc.Max2[j] {
			acc.Max2[j] = d2
		}
	}
	if denserVals(m.Rho(j), m.Rho(i), m.ID(j), m.ID(i)) {
		if d2 < acc.Best2[i] {
			acc.Best2[i] = d2
			acc.Up[i] = int32(j)
		}
	} else if d2 < acc.Best2[j] {
		acc.Best2[j] = d2
		acc.Up[j] = int32(i)
	}
}

// chunkings returns representative [lo,hi) chunk lists over n rows: the
// whole range, and contiguous caps that leave uneven remainders around tile
// boundaries.
func chunkings(n int) [][][2]int {
	whole := [][2]int{{0, n}}
	out := [][][2]int{whole}
	for _, cap := range []int{tile - 1, tile + 37, 2*tile + 5} {
		if cap >= n {
			continue
		}
		var ch [][2]int
		for lo := 0; lo < n; lo += cap {
			ch = append(ch, [2]int{lo, min(lo+cap, n)})
		}
		out = append(out, ch)
	}
	return out
}

// propDims and propSizes are the shapes every bit-identity property runs
// over: dims on both sides of the old 2–8 range (1, and 9–17 past any
// unrolling), and row counts that leave every n mod 4 remainder of the
// four-row distance blocks next to a tile edge.
var (
	propDims  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	propSizes = []int{1, 2, 3, 4, 5, tile - 1, tile, tile + 1, tile + 2, tile + 3, 3*tile + 17}
)

func TestRhoAccumulateBitIdentical(t *testing.T) {
	for _, dim := range propDims {
		for _, n := range propSizes {
			m := randMatrix(t, n, dim, int64(dim*1000+n))
			k := Kernel{Dc2: 4.0}
			for ci, chunks := range chunkings(n) {
				want := make([]float64, n)
				got := make([]float64, n)
				var ndWant, ndGot int64
				for _, ch := range chunks {
					ndWant += naiveRho(m, ch[0], ch[1], k, want)
					ndGot += RhoAccumulate(m, ch[0], ch[1], k, got)
				}
				if ndWant != ndGot {
					t.Fatalf("dim=%d n=%d chunks=%d: nd %d != %d", dim, n, ci, ndGot, ndWant)
				}
				assertBitsEqual(t, fmt.Sprintf("rho dim=%d n=%d chunks=%d", dim, n, ci), got, want)
			}
		}
	}
}

func TestRhoCrossBitIdentical(t *testing.T) {
	for _, dim := range propDims {
		n := 2*tile + 31 + dim%4  // every n mod 4 on both sides of the split
		split := tile + 7 + dim%3 // rows [0,split) are "B/local", [split,n) are "A/visitors"
		m := randMatrix(t, n, dim, int64(dim*77+1))
		k := Kernel{Dc2: 3.0}
		for _, both := range []bool{true, false} {
			want := make([]float64, n)
			got := make([]float64, n)
			ndWant := naiveRhoCross(m, split, n, 0, split, k, want, both)
			ndGot := rhoCross(m, split, n, 0, split, k, got, both)
			if ndWant != ndGot {
				t.Fatalf("dim=%d both=%v: nd %d != %d", dim, both, ndGot, ndWant)
			}
			assertBitsEqual(t, fmt.Sprintf("rhoCross dim=%d both=%v", dim, both), got, want)
		}
	}
}

func TestDeltaArgminBitIdentical(t *testing.T) {
	for _, dim := range propDims {
		for _, n := range propSizes {
			m := randMatrix(t, n, dim, int64(dim*31+n))
			for _, withMax := range []bool{false, true} {
				for ci, chunks := range chunkings(n) {
					want := NewDeltaAcc(n, withMax)
					got := NewDeltaAcc(n, withMax)
					for _, ch := range chunks {
						naiveDelta(m, ch[0], ch[1], want)
						DeltaArgmin(m, ch[0], ch[1], got)
					}
					assertDeltaEqual(t, fmt.Sprintf("delta dim=%d n=%d max=%v chunks=%d", dim, n, withMax, ci), got, want)
				}
			}
		}
	}
}

func TestDeltaCrossBitIdentical(t *testing.T) {
	for _, dim := range propDims {
		n := 2*tile + 9 + dim%4
		split := tile - 3 + dim%3
		m := randMatrix(t, n, dim, int64(dim*13+5))
		// Basic-DDP shape: diagonal pass over local rows, then cross pass
		// visitors × local, both through one accumulator.
		want := NewDeltaAcc(n, true)
		got := NewDeltaAcc(n, true)
		naiveDelta(m, 0, split, want)
		naiveDeltaCross(m, split, n, 0, split, want)
		DeltaArgmin(m, 0, split, got)
		deltaCross(m, split, n, 0, split, got)
		assertDeltaEqual(t, fmt.Sprintf("deltaCross dim=%d", dim), got, want)
	}
}

// TestDeltaTieBreak pins the first-wins rule on exactly equal distances:
// two equidistant denser rows must resolve to the earlier row.
func TestDeltaTieBreak(t *testing.T) {
	values := [][]byte{
		points.EncodeRhoPoint(points.RhoPoint{Point: points.Point{ID: 10, Pos: points.Vector{0, 0}}, Rho: 1}),
		points.EncodeRhoPoint(points.RhoPoint{Point: points.Point{ID: 11, Pos: points.Vector{1, 0}}, Rho: 5}),
		points.EncodeRhoPoint(points.RhoPoint{Point: points.Point{ID: 12, Pos: points.Vector{-1, 0}}, Rho: 5}),
	}
	m := new(points.Matrix)
	if err := points.DecodeRhoPointsInto(m, values); err != nil {
		t.Fatal(err)
	}
	acc := NewDeltaAcc(3, false)
	DeltaArgmin(m, 0, 3, acc)
	if acc.Up[0] != 1 {
		t.Fatalf("tie resolved to row %d, want first-seen row 1", acc.Up[0])
	}
}

// hostileMatrix is randMatrix with the values a blocked kernel could get
// wrong planted in it: coordinates holding ±Inf, NaN, −0 and magnitudes
// whose squares overflow; lattice coordinates elsewhere, so exactly equal
// distances are everywhere, including across four-row block boundaries;
// densities with exact ties, ±Inf and NaN; and a few rows that share both
// density and ID, which the density order calls neither denser.
func hostileMatrix(t testing.TB, n, dim int, seed int64) *points.Matrix {
	t.Helper()
	rng := points.NewRand(seed)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1e200, -1e200}
	rhos := []float64{0, 1, 1, 2, 3, math.Inf(1), math.Inf(-1), math.NaN()}
	values := make([][]byte, n)
	for i := 0; i < n; i++ {
		pos := make(points.Vector, dim)
		for j := range pos {
			pos[j] = float64(rng.Intn(3))
		}
		if rng.Intn(6) == 0 {
			pos[rng.Intn(dim)] = special[rng.Intn(len(special))]
		}
		id, rho := int32(n-i), rhos[rng.Intn(len(rhos))]
		if r := i % 9; r >= 7 { // rows 7 and 8 of every nine share ρ and ID
			id, rho = int32(n-i+r-7), 2
		}
		values[i] = points.EncodeRhoPoint(points.RhoPoint{Point: points.Point{ID: id, Pos: pos}, Rho: rho})
	}
	m := new(points.Matrix)
	if err := points.DecodeRhoPointsInto(m, values); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHostileRowsBitIdentical runs every pair kernel over hostileMatrix:
// non-finite distances, mass ties and unordered densities must leave ρ, δ,
// upslope and the fallback maximum exactly as the naive loops do.
func TestHostileRowsBitIdentical(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 8, 9, 17} {
		for _, n := range []int{7, tile + 2, 2*tile + 7} {
			m := hostileMatrix(t, n, dim, int64(dim*100+n))
			tag := fmt.Sprintf("hostile dim=%d n=%d", dim, n)
			k := Kernel{Dc2: 2.0}
			for ci, chunks := range chunkings(n) {
				wantRho, gotRho := make([]float64, n), make([]float64, n)
				for _, ch := range chunks {
					naiveRho(m, ch[0], ch[1], k, wantRho)
					RhoAccumulate(m, ch[0], ch[1], k, gotRho)
				}
				assertBitsEqual(t, fmt.Sprintf("%s rho chunks=%d", tag, ci), gotRho, wantRho)
				want, got := NewDeltaAcc(n, true), NewDeltaAcc(n, true)
				for _, ch := range chunks {
					naiveDelta(m, ch[0], ch[1], want)
					DeltaArgmin(m, ch[0], ch[1], got)
				}
				assertDeltaEqual(t, fmt.Sprintf("%s delta chunks=%d", tag, ci), got, want)
			}
			split := n / 3
			for _, both := range []bool{true, false} {
				want, got := make([]float64, n), make([]float64, n)
				naiveRhoCross(m, split, n, 0, split, k, want, both)
				rhoCross(m, split, n, 0, split, k, got, both)
				assertBitsEqual(t, fmt.Sprintf("%s rhoCross both=%v", tag, both), got, want)
			}
			want, got := NewDeltaAcc(n, true), NewDeltaAcc(n, true)
			naiveDelta(m, 0, split, want)
			naiveDeltaCross(m, split, n, 0, split, want)
			DeltaArgmin(m, 0, split, got)
			deltaCross(m, split, n, 0, split, got)
			assertDeltaEqual(t, tag+" deltaCross", got, want)
		}
	}
}

// TestDeltaTieStraddlesBlock pins first-wins when the equidistant denser
// rows sit on both sides of a four-row block boundary of the strip: row 0's
// strip is rows 1.., so rows 4 and 5 are the last lane of one block and the
// first of the next.
func TestDeltaTieStraddlesBlock(t *testing.T) {
	pos := []points.Vector{{0, 0}, {9, 0}, {0, 9}, {9, 9}, {0, 1}, {1, 0}, {-1, 0}, {0, -1}, {7, 7}, {0, 1}}
	values := make([][]byte, len(pos))
	for i, p := range pos {
		values[i] = points.EncodeRhoPoint(points.RhoPoint{Point: points.Point{ID: int32(100 - i), Pos: p}, Rho: float64(i)})
	}
	m := new(points.Matrix)
	if err := points.DecodeRhoPointsInto(m, values); err != nil {
		t.Fatal(err)
	}
	acc := NewDeltaAcc(len(pos), false)
	DeltaArgmin(m, 0, len(pos), acc)
	if acc.Up[0] != 4 || acc.Best2[0] != 1 {
		t.Fatalf("row 0 resolved to row %d at d²=%v, want first-seen row 4 at 1", acc.Up[0], acc.Best2[0])
	}
}

// sameFloat is bit equality, except that any two NaNs are equal: which NaN
// payload an addition of two NaNs keeps is the compiler's operand order.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%x), want %v (%x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func assertDeltaEqual(t *testing.T, what string, got, want *DeltaAcc) {
	t.Helper()
	assertBitsEqual(t, what+" best2", got.Best2, want.Best2)
	for i := range want.Up {
		if got.Up[i] != want.Up[i] {
			t.Fatalf("%s: up[%d] = %d, want %d", what, i, got.Up[i], want.Up[i])
		}
	}
	if want.Max2 != nil {
		assertBitsEqual(t, what+" max2", got.Max2, want.Max2)
	}
}
