package kernels_test

import (
	"testing"

	"repro/internal/dp"
	"repro/internal/kernels"
)

// TestDensityRankIsDenserVals pins the rank the δ kernels select by to the
// order it stands for: for an earlier row i and a later row j of any pair,
// the integer test deltaTile makes equals dp.DenserVals on the densities
// and IDs — ties, shared (ρ, ID) and NaN densities included.
func TestDensityRankIsDenserVals(t *testing.T) {
	m := kernels.HostileMatrix(t, 200, 2, 7)
	denser := kernels.RankDenser(m)
	for i := range m.N() {
		for j := range m.N() {
			want := dp.DenserVals(m.Rho(j), m.Rho(i), m.ID(j), m.ID(i))
			if got := denser(i, j); i != j && got != want {
				t.Fatalf("rows %d (ρ=%v id=%d), %d (ρ=%v id=%d): rank says denser=%v, DenserVals %v",
					i, m.Rho(i), m.ID(i), j, m.Rho(j), m.ID(j), got, want)
			}
		}
	}
}
