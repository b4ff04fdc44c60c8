package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mapreduce"
)

// ExpFig10 regenerates Figure 10(a,b,c): runtime, shuffled data volume,
// and number of distance measurements of Basic-DDP vs LSH-DDP on the four
// large real-world sets (Facial, KDD, 3Dspatial, BigCross500K), with the
// paper's parameters (A=0.99, M=10, π=3; Basic block size 500).
//
// The paper's shape: LSH-DDP wins on all three metrics, and the gap grows
// with data set size because Basic-DDP's costs are quadratic (1.7–24×
// runtime, 5–87× shuffle, 1.7–6.1× distances at the paper's scales).
// LSH-DDP's rows also split its shuffle by job (jobShuffle).
func ExpFig10(opt Options) (*Report, error) {
	r := &Report{
		Title: "Figure 10: Basic-DDP vs LSH-DDP (A=0.99, M=10, pi=3, block=500)",
		Columns: []string{"dataset", "N", "algo", "runtime", "shuffle", "shuffle rho/rho-agg/delta/delta-agg", "dist",
			"speedup", "shuffle-save", "dist-save"},
	}
	for _, name := range []string{"Facial", "KDD", "3Dspatial", "BigCross500K"} {
		ds, err := opt.load(name)
		if err != nil {
			return nil, err
		}
		eng := opt.engine()
		opt.logf("fig10: %s N=%d running Basic-DDP...", name, ds.N())
		basic, err := core.RunBasicDDP(context.Background(), ds, opt.basicConfig(eng))
		if err != nil {
			return nil, err
		}
		opt.logf("fig10: %s running LSH-DDP...", name)
		lshRes, err := core.RunLSHDDP(context.Background(), ds, opt.lshConfig(eng))
		if err != nil {
			return nil, err
		}
		n := fmt.Sprintf("%d", ds.N())
		r.AddRow(name, n, "Basic-DDP",
			fsec(basic.Stats.Wall), fmb(basic.Stats.ShuffleBytes), "-", fcount(basic.Stats.DistanceComputations),
			"1.0x", "1.0x", "1.0x")
		r.AddRow(name, n, "LSH-DDP",
			fsec(lshRes.Stats.Wall), fmb(lshRes.Stats.ShuffleBytes), jobShuffle(lshRes.Stats), fcount(lshRes.Stats.DistanceComputations),
			fratio(basic.Stats.Wall.Seconds(), lshRes.Stats.Wall.Seconds()),
			fratio(float64(basic.Stats.ShuffleBytes), float64(lshRes.Stats.ShuffleBytes)),
			fratio(float64(basic.Stats.DistanceComputations), float64(lshRes.Stats.DistanceComputations)),
		)
	}
	r.Notes = append(r.Notes,
		"expected shape: LSH-DDP wins on all metrics, with larger savings on larger sets (Basic-DDP is quadratic)")
	return r, nil
}

// jobShuffle lists the shuffle of LSH-DDP's jobs after the d_c sample — the
// ρ job, the ρ aggregation and the two δ jobs — in MB, in that order.
func jobShuffle(st core.Stats) string {
	var parts []string
	for _, name := range []string{core.JobLSHRho, core.JobLSHRhoAgg, core.JobLSHDel, core.JobLSHDelAgg} {
		var b int64
		for _, j := range st.Jobs {
			if j.Name == name {
				b += j.Counters[mapreduce.CtrShuffleBytes]
			}
		}
		parts = append(parts, fmt.Sprintf("%.2f", float64(b)/(1<<20)))
	}
	return strings.Join(parts, " / ") + "MB"
}
