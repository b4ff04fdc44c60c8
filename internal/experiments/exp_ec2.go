package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// ExpEC2 regenerates the Section VI-D large-scale claim (the paper's EC2
// run): on the full BigCross set, Basic-DDP took 91.2 hours and LSH-DDP
// 1.3 hours — a 70× speedup. Running Basic-DDP at even our scaled
// BigCross size is deliberately out of budget (that is the point of the
// experiment), so Basic-DDP is measured on a subsample and extrapolated
// quadratically — its distance count and shuffle volume grow as N² and
// N·n respectively, which the measured scaling constants pin down.
func ExpEC2(opt Options) (*Report, error) {
	ds, err := opt.load("BigCross")
	if err != nil {
		return nil, err
	}
	eng := opt.engine()

	opt.logf("ec2: N=%d running LSH-DDP at full scale...", ds.N())
	lshRes, err := core.RunLSHDDP(context.Background(), ds, opt.lshConfig(eng))
	if err != nil {
		return nil, err
	}

	// Basic-DDP on a 1/8 subsample of the same data.
	sub := dataset.Subsample(ds, ds.N()/8)
	opt.logf("ec2: running Basic-DDP on subsample N=%d...", sub.N())
	basic, err := core.RunBasicDDP(context.Background(), sub, opt.basicConfig(eng))
	if err != nil {
		return nil, err
	}
	ratio := float64(ds.N()) / float64(sub.N())
	extraWall := time.Duration(float64(basic.Stats.Wall) * ratio * ratio)
	extraDist := int64(float64(basic.Stats.DistanceComputations) * ratio * ratio)
	// Shuffle grows ~quadratically too: copies per point ∝ n = N/block.
	extraShuffle := int64(float64(basic.Stats.ShuffleBytes) * ratio * ratio)

	r := &Report{
		Title:   fmt.Sprintf("Section VI-D (EC2): LSH-DDP vs Basic-DDP on BigCross (N=%d)", ds.N()),
		Columns: []string{"algorithm", "N", "runtime", "shuffle", "dist", "measured"},
	}
	r.AddRow("LSH-DDP", fmt.Sprintf("%d", ds.N()),
		fsec(lshRes.Stats.Wall), fmb(lshRes.Stats.ShuffleBytes), fcount(lshRes.Stats.DistanceComputations), "yes")
	r.AddRow("Basic-DDP", fmt.Sprintf("%d", sub.N()),
		fsec(basic.Stats.Wall), fmb(basic.Stats.ShuffleBytes), fcount(basic.Stats.DistanceComputations), "yes (subsample)")
	r.AddRow("Basic-DDP", fmt.Sprintf("%d", ds.N()),
		fsec(extraWall), fmb(extraShuffle), fcount(extraDist), "extrapolated (xN^2)")
	r.Notes = append(r.Notes,
		fmt.Sprintf("extrapolated speedup of LSH-DDP over Basic-DDP at N=%d: %s (paper: 70x at N=11.6M)",
			ds.N(), fratio(extraWall.Seconds(), lshRes.Stats.Wall.Seconds())),
	)
	return r, nil
}
