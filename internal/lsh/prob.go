package lsh

import (
	"fmt"
	"math"
)

// Probability formulas from the paper. Notation:
//
//	w    — hash width
//	d_c  — cutoff distance (ρ's neighbourhood radius)
//	π    — functions per group
//	M    — number of layouts
//
// All functions treat degenerate inputs (zero distance) as certain
// collision.

// AllNeighborsProbLB is the paper's Lemma 1 lower bound on
// Pr[all d_c-neighbours of a point share its slot]:
//
//	P_ρ(w, d_c) ≥ 1 − 4 d_c / (√(2π) w)
//
// clamped to [0, 1]. It underestimates the exact probability (the integrand
// 1 − 2 d_c x / w goes negative for large x instead of clamping at zero).
func AllNeighborsProbLB(dc, w float64) float64 {
	if dc <= 0 {
		return 1
	}
	p := 1 - 4*dc/(math.Sqrt(2*math.Pi)*w)
	if p < 0 {
		return 0
	}
	return p
}

// LayoutAccuracy is Theorem 1: with M layouts of π functions each,
//
//	Pr[ρ̂_i = ρ_i] ≥ 1 − (1 − P^π)^M
//
// where P is the per-function all-neighbours probability.
func LayoutAccuracy(perFunc float64, pi, m int) float64 {
	if perFunc < 0 || perFunc > 1 {
		panic(fmt.Sprintf("lsh: probability %v out of [0,1]", perFunc))
	}
	return 1 - math.Pow(1-math.Pow(perFunc, float64(pi)), float64(m))
}

// ExpectedAccuracy is Eq. 5, the accuracy objective the solver inverts:
// A(w, π, M) = 1 − (1 − P_ρ(w,d_c)^π)^M using the paper's lower bound.
func ExpectedAccuracy(w, dc float64, pi, m int) float64 {
	return LayoutAccuracy(AllNeighborsProbLB(dc, w), pi, m)
}

// SolveWidth finds the minimal width w such that ExpectedAccuracy(w, dc,
// pi, m) ≥ accuracy, by bisection (the accuracy is monotone increasing in
// w). accuracy must be in (0, 1); dc must be positive.
func SolveWidth(accuracy, dc float64, pi, m int) (float64, error) {
	if accuracy <= 0 || accuracy >= 1 {
		return 0, fmt.Errorf("lsh: accuracy %v out of (0,1)", accuracy)
	}
	if dc <= 0 {
		return 0, fmt.Errorf("lsh: non-positive d_c %v", dc)
	}
	if pi <= 0 || m <= 0 {
		return 0, fmt.Errorf("lsh: non-positive pi=%d or m=%d", pi, m)
	}
	lo, hi := dc, dc*2
	for ExpectedAccuracy(hi, dc, pi, m) < accuracy {
		hi *= 2
		if hi > dc*1e12 {
			return 0, fmt.Errorf("lsh: no width satisfies accuracy %v with pi=%d m=%d", accuracy, pi, m)
		}
	}
	for i := 0; i < 200 && (hi-lo)/hi > 1e-12; i++ {
		mid := (lo + hi) / 2
		if ExpectedAccuracy(mid, dc, pi, m) >= accuracy {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// RequiredPerFuncProb inverts Theorem 1 for P: the per-function
// all-neighbours probability needed so that M layouts of π functions reach
// the target accuracy.
func RequiredPerFuncProb(accuracy float64, pi, m int) float64 {
	if accuracy <= 0 {
		return 0
	}
	if accuracy >= 1 {
		return 1
	}
	perLayout := 1 - math.Pow(1-accuracy, 1/float64(m))
	return math.Pow(perLayout, 1/float64(pi))
}
