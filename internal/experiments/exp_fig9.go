package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/evalmetrics"
)

// ExpFig9 regenerates Figure 9: approximation accuracy τ₁ and τ₂ of
// LSH-DDP on BigCross500K as the expected accuracy A sweeps upward
// (M=10, π=3, w solved per A). Exact ρ comes from one sequential DP run.
//
// The paper's shape: both metrics rise with A and approach 1; τ₁ tracks
// the diagonal (the accuracy target is realized) and τ₂ sits above τ₁.
func ExpFig9(opt Options) (*Report, error) {
	ds, err := opt.load("BigCross500K")
	if err != nil {
		return nil, err
	}
	eng := opt.engine()
	dc := dp.CutoffByPercentile(ds, 0.02, opt.Seed)
	opt.logf("fig9: N=%d dc=%.4g, computing exact rho...", ds.N(), dc)
	exact, err := dp.Compute(ds, dc)
	if err != nil {
		return nil, err
	}

	r := &Report{
		Title:   fmt.Sprintf("Figure 9: LSH-DDP accuracy vs expected accuracy A on BigCross500K (N=%d, M=10, pi=3)", ds.N()),
		Columns: []string{"A", "w", "tau1", "tau2", "runtime", "dist"},
	}
	for _, accuracy := range []float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99} {
		cfg := opt.lshConfig(eng)
		cfg.Accuracy = accuracy
		cfg.Dc = dc
		res, err := core.RunLSHDDP(context.Background(), ds, cfg)
		if err != nil {
			return nil, err
		}
		tau1, err := evalmetrics.Tau1(exact.Rho, res.Rho)
		if err != nil {
			return nil, err
		}
		tau2, err := evalmetrics.Tau2(exact.Rho, res.Rho)
		if err != nil {
			return nil, err
		}
		opt.logf("fig9: A=%.2f tau1=%.4f tau2=%.4f", accuracy, tau1, tau2)
		r.AddRow(
			fmt.Sprintf("%.2f", accuracy),
			fmt.Sprintf("%.4g", res.Stats.W),
			fmt.Sprintf("%.4f", tau1),
			fmt.Sprintf("%.4f", tau2),
			fsec(res.Stats.Wall),
			fcount(res.Stats.DistanceComputations),
		)
	}
	r.Notes = append(r.Notes, "expected shape: tau1 and tau2 rise with A and approach 1; tau2 >= tau1")
	return r, nil
}
