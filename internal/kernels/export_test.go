package kernels

import "repro/internal/points"

// Hooks for the tests of package kernels_test, which may import the
// packages that import kernels.

var HostileMatrix = hostileMatrix

// RankDenser ranks m's rows as the δ kernels do and returns their test of
// whether row j is denser than row i (i ≠ j).
func RankDenser(m *points.Matrix) func(i, j int) bool {
	acc := NewDeltaAcc(m.N(), false)
	acc.rankRows(m) // one order for every block of the list
	return func(i, j int) bool {
		return lessDense(i, j, earlierRank(acc.rank, i), acc.rank[j]) == i
	}
}
