// Package evalmetrics provides clustering-quality and approximation-quality
// metrics used by the experiment harness:
//
//   - external cluster validation against ground truth: purity, Rand index,
//     adjusted Rand index (ARI), normalized mutual information (NMI), and
//     Fowlkes–Mallows — used in the Figure 8 comparison of DP against
//     hierarchical/K-means/EM/DBSCAN;
//
//   - the paper's approximation metrics for LSH-DDP: τ₁, the fraction of
//     exactly recovered ρ̂, and τ₂ = 1 − normalized absolute ρ̂ error
//     (Section VI-C, Figure 9).
package evalmetrics

import (
	"fmt"
	"math"
)

// contingency builds the confusion matrix between two labelings plus the
// marginals. Labels may be arbitrary non-negative ints; -1 denotes noise
// (its points form singleton classes so noise is penalized, the common
// convention for DBSCAN-style outputs).
type contingency struct {
	cells    map[[2]int]int
	rowSums  map[int]int
	colSums  map[int]int
	n        int
	nextSynt int
}

func buildContingency(truth, pred []int) (*contingency, error) {
	if len(truth) != len(pred) {
		return nil, fmt.Errorf("evalmetrics: %d truth labels vs %d predictions", len(truth), len(pred))
	}
	c := &contingency{
		cells:    make(map[[2]int]int),
		rowSums:  make(map[int]int),
		colSums:  make(map[int]int),
		n:        len(truth),
		nextSynt: 1 << 30,
	}
	for i := range truth {
		t, p := truth[i], pred[i]
		if t < 0 {
			t = c.nextSynt
			c.nextSynt++
		}
		if p < 0 {
			p = c.nextSynt
			c.nextSynt++
		}
		c.cells[[2]int{t, p}]++
		c.rowSums[t]++
		c.colSums[p]++
	}
	return c, nil
}

func choose2(n int) float64 { return float64(n) * float64(n-1) / 2 }

// Purity is the fraction of points whose predicted cluster's majority truth
// label matches their own truth label.
func Purity(truth, pred []int) (float64, error) {
	c, err := buildContingency(truth, pred)
	if err != nil {
		return 0, err
	}
	if c.n == 0 {
		return 0, fmt.Errorf("evalmetrics: empty labelings")
	}
	best := make(map[int]int)
	for cell, n := range c.cells {
		if n > best[cell[1]] {
			best[cell[1]] = n
		}
	}
	total := 0
	for _, b := range best {
		total += b
	}
	return float64(total) / float64(c.n), nil
}

// ARI is the adjusted Rand index (Hubert & Arabie): Rand index corrected
// for chance, 1 for identical partitions, ~0 for random ones.
func ARI(truth, pred []int) (float64, error) {
	c, err := buildContingency(truth, pred)
	if err != nil {
		return 0, err
	}
	if c.n < 2 {
		return 0, fmt.Errorf("evalmetrics: need at least 2 points")
	}
	var sumCells, sumRows, sumCols float64
	for _, n := range c.cells {
		sumCells += choose2(n)
	}
	for _, n := range c.rowSums {
		sumRows += choose2(n)
	}
	for _, n := range c.colSums {
		sumCols += choose2(n)
	}
	total := choose2(c.n)
	expected := sumRows * sumCols / total
	maxIndex := (sumRows + sumCols) / 2
	if maxIndex == expected {
		// Both partitions are all-singletons or one cluster: define as 1
		// when identical agreement, else 0.
		if sumCells == maxIndex {
			return 1, nil
		}
		return 0, nil
	}
	return (sumCells - expected) / (maxIndex - expected), nil
}

// NMI is normalized mutual information with the arithmetic-mean
// normalization: I(T;P) / ((H(T)+H(P))/2). Degenerate partitions with zero
// entropy on both sides return 1 when identical, else 0.
func NMI(truth, pred []int) (float64, error) {
	c, err := buildContingency(truth, pred)
	if err != nil {
		return 0, err
	}
	if c.n == 0 {
		return 0, fmt.Errorf("evalmetrics: empty labelings")
	}
	n := float64(c.n)
	var mi float64
	for cell, cnt := range c.cells {
		pij := float64(cnt) / n
		pi := float64(c.rowSums[cell[0]]) / n
		pj := float64(c.colSums[cell[1]]) / n
		mi += pij * math.Log(pij/(pi*pj))
	}
	entropy := func(sums map[int]int) float64 {
		var h float64
		for _, cnt := range sums {
			p := float64(cnt) / n
			h -= p * math.Log(p)
		}
		return h
	}
	ht, hp := entropy(c.rowSums), entropy(c.colSums)
	if ht == 0 && hp == 0 {
		return 1, nil
	}
	if ht == 0 || hp == 0 {
		return 0, nil
	}
	return mi / ((ht + hp) / 2), nil
}

// Tau1 is the paper's τ₁ = fraction of points whose approximate density
// exactly equals the true density.
func Tau1(exact, approx []float64) (float64, error) {
	if len(exact) != len(approx) {
		return 0, fmt.Errorf("evalmetrics: %d exact vs %d approx", len(exact), len(approx))
	}
	if len(exact) == 0 {
		return 0, fmt.Errorf("evalmetrics: empty arrays")
	}
	hit := 0
	for i := range exact {
		if exact[i] == approx[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact)), nil
}

// Tau2 is the paper's τ₂ = 1 − (Σ|ρ̂−ρ|)/(Σρ), one minus the normalized
// absolute error; 1 when the approximation is perfect.
func Tau2(exact, approx []float64) (float64, error) {
	if len(exact) != len(approx) {
		return 0, fmt.Errorf("evalmetrics: %d exact vs %d approx", len(exact), len(approx))
	}
	if len(exact) == 0 {
		return 0, fmt.Errorf("evalmetrics: empty arrays")
	}
	var errSum, norm float64
	for i := range exact {
		errSum += math.Abs(exact[i] - approx[i])
		norm += exact[i]
	}
	if norm == 0 {
		if errSum == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - errSum/norm, nil
}

// IntLabels converts int32 labels (the decision package's output) to ints.
func IntLabels(l []int32) []int {
	out := make([]int, len(l))
	for i, v := range l {
		out[i] = int(v)
	}
	return out
}
