package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/evalmetrics"
	"repro/internal/tuning"
)

// ExpFig12 regenerates Figure 12: the effect of the LSH parameters M and π
// on runtime (a) and the accuracy metric τ₂ (b), on BigCross500K with
// A = 0.99 and w solved per configuration.
//
// The paper's shape: with small π runtime grows with M; with large π the
// trend can reverse (small M + large π skews partition sizes); τ₂ is
// unstable below M≈5 and ≈0.99 above it. Recommended region: M ∈ [10,20],
// π ∈ [3,10].
//
// Below the measured grid, rows marked "model" are Section V's cost model
// (Eq. 6–9, μ calibrated where it runs) ranking the same grid at the same
// A, cheapest first: its first row is the (M, π, w) it recommends.
func ExpFig12(opt Options) (*Report, error) {
	ds, err := opt.load("BigCross500K")
	if err != nil {
		return nil, err
	}
	eng := opt.engine()
	dc := dp.CutoffByPercentile(ds, 0.02, opt.Seed)
	opt.logf("fig12: N=%d dc=%.4g, computing exact rho...", ds.N(), dc)
	exact, err := dp.Compute(ds, dc)
	if err != nil {
		return nil, err
	}

	r := &Report{
		Title:   fmt.Sprintf("Figure 12: effect of M and pi on runtime and tau2 (BigCross500K, N=%d, A=0.99)", ds.N()),
		Columns: []string{"M", "pi", "w", "runtime", "dist", "tau2"},
	}
	ms := []int{2, 5, 10, 20, 30}
	pis := []int{3, 10, 20}
	if opt.scale() > 2 {
		ms = []int{2, 5, 10, 20}
		pis = []int{3, 10}
	}
	for _, pi := range pis {
		for _, m := range ms {
			cfg := opt.lshConfig(eng)
			cfg.Dc = dc
			cfg.M = m
			cfg.Pi = pi
			res, err := core.RunLSHDDP(context.Background(), ds, cfg)
			if err != nil {
				return nil, err
			}
			tau2, err := evalmetrics.Tau2(exact.Rho, res.Rho)
			if err != nil {
				return nil, err
			}
			opt.logf("fig12: M=%d pi=%d tau2=%.4f wall=%s", m, pi, tau2, fsec(res.Stats.Wall))
			r.AddRow(
				fmt.Sprintf("%d", m),
				fmt.Sprintf("%d", pi),
				fmt.Sprintf("%.4g", res.Stats.W),
				fsec(res.Stats.Wall),
				fcount(res.Stats.DistanceComputations),
				fmt.Sprintf("%.4f", tau2),
			)
		}
	}
	mu := tuning.CalibrateMu(ds.Dim(), opt.Seed)
	model := &tuning.Model{N: ds.N(), Dim: ds.Dim(), Dc: dc, Seed: opt.Seed, Mu: mu}
	costs, err := model.Recommend(ds, 0.99, ms, pis)
	if err != nil {
		return nil, err
	}
	for _, c := range costs[:min(len(costs), fig12ModelRows)] {
		r.AddRow(fmt.Sprintf("%d", c.M), fmt.Sprintf("%d", c.Pi), fmt.Sprintf("%.4g", c.W),
			"model", fcount(int64(c.Distances)), "-")
	}
	best := costs[0]
	r.Notes = append(r.Notes,
		"expected shape: runtime grows with M at small pi; tau2 unstable for M < 5, ~0.99 for M >= 5",
		"recommended operating region (paper): M in [10,20], pi in [3,10]",
		fmt.Sprintf("model rows: the Section V cost model's cheapest %d of this grid (mu=%.3g calibrated here; dist is its E[distances]); "+
			"it recommends M=%d pi=%d w=%.4g (expected accuracy %.4f, E[shuffle] %s)",
			fig12ModelRows, mu, best.M, best.Pi, best.W, best.Accuracy, fmb(int64(best.ShuffleBytes))))
	return r, nil
}

// fig12ModelRows is how many of the cost model's cheapest configurations
// Figure 12 prints.
const fig12ModelRows = 3
