package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/evalmetrics"
)

// ExpFig7 regenerates Figure 7: decision graphs of Basic-DDP vs LSH-DDP on
// the S2 data set (A=0.99, M=10, π=3), compared through the same selection
// box. The paper's observation: both select the same number of peaks
// (15 for S2); some LSH-DDP peaks sit at the very top of the chart because
// their δ̂ was ∞ (local absolute peaks), which only makes them easier to
// pick. The report also shows the pairwise cluster agreement between the
// two resulting clusterings.
func ExpFig7(opt Options) (*Report, error) {
	ds, err := opt.load("S2")
	if err != nil {
		return nil, err
	}
	eng := opt.engine()

	basic, err := core.RunBasicDDP(context.Background(), ds, opt.basicConfig(eng))
	if err != nil {
		return nil, err
	}
	lshRes, err := core.RunLSHDDP(context.Background(), ds, opt.lshConfig(eng))
	if err != nil {
		return nil, err
	}

	// Count LSH-DDP's infinite deltas before rectification — the points
	// that appear "at the top of the chart".
	infs := 0
	for _, d := range lshRes.Delta {
		if math.IsInf(d, 1) {
			infs++
		}
	}

	// Selection box: calibrated from the exact graph so that it selects
	// exactly the 15 generated clusters — all points with γ far above the
	// crowd. We use the same absolute box on both graphs, as the paper does
	// (ρ > 14, δ > 40 in their axes).
	bg, err := basic.Graph()
	if err != nil {
		return nil, err
	}
	rhoMin, deltaMin := calibrateBox(bg, 15)
	basicPeaks := bg.SelectBox(rhoMin, deltaMin)

	lg, err := lshRes.Graph()
	if err != nil {
		return nil, err
	}
	lshPeaks := lg.SelectBox(rhoMin, deltaMin)

	basicLabels, err := bg.Assign(ds, basicPeaks)
	if err != nil {
		return nil, err
	}
	lshLabels, err := lg.Assign(ds, lshPeaks)
	if err != nil {
		return nil, err
	}
	ari, err := evalmetrics.ARI(evalmetrics.IntLabels(basicLabels), evalmetrics.IntLabels(lshLabels))
	if err != nil {
		return nil, err
	}
	nmi, err := evalmetrics.NMI(evalmetrics.IntLabels(basicLabels), evalmetrics.IntLabels(lshLabels))
	if err != nil {
		return nil, err
	}

	r := &Report{
		Title:   "Figure 7: decision graphs Basic-DDP vs LSH-DDP on S2 (A=0.99, M=10, pi=3)",
		Columns: []string{"algorithm", "peaks-in-box", "inf-delta-points", "runtime", "dist"},
	}
	r.AddRow("Basic-DDP", fmt.Sprintf("%d", len(basicPeaks)), "0",
		fsec(basic.Stats.Wall), fcount(basic.Stats.DistanceComputations))
	r.AddRow("LSH-DDP", fmt.Sprintf("%d", len(lshPeaks)), fmt.Sprintf("%d", infs),
		fsec(lshRes.Stats.Wall), fcount(lshRes.Stats.DistanceComputations))
	r.Notes = append(r.Notes,
		fmt.Sprintf("selection box: rho > %.3g, delta > %.3g (same box on both graphs)", rhoMin, deltaMin),
		fmt.Sprintf("cluster agreement between the two results: ARI=%.4f NMI=%.4f", ari, nmi),
	)
	return r, nil
}

// calibrateBox picks a (ρ_min, δ_min) box that captures the k top-γ points
// of a rectified graph with margin — the programmatic stand-in for the
// rectangle a user draws on the decision graph.
func calibrateBox(g *decision.Graph, k int) (float64, float64) {
	peaks := g.SelectTopK(k)
	rhoMin, deltaMin := math.Inf(1), math.Inf(1)
	for _, p := range peaks {
		if g.Rho[p] < rhoMin {
			rhoMin = g.Rho[p]
		}
		if g.Delta[p] < deltaMin {
			deltaMin = g.Delta[p]
		}
	}
	// 60% of the weakest peak's coordinates keeps the box comfortably
	// below the outliers but above the crowd.
	return rhoMin * 0.6, deltaMin * 0.6
}
