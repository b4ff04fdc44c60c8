package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// ExpExtensions exercises the repository's beyond-paper features end to
// end — the extensions the paper's conclusion anticipates ("we believe it
// is feasible to modify our solution to support variants of DP"):
//
//  1. Distributed halo detection: the original DP paper's cluster-core /
//     halo split, computed with two extra LSH-partitioned jobs; the halo
//     jobs' distance computations and shuffle bytes are reported beside
//     the base pipeline's. TestRunLSHHaloUnderestimatesExactBorder checks
//     that the estimated border densities underestimate the exact ones.
//  2. Automatic k suggestion: the γ-gap knee heuristic on decision graphs
//     with known ground-truth k.
func ExpExtensions(opt Options) (*Report, error) {
	r := &Report{
		Title:   "Extensions: distributed halo, auto-k",
		Columns: []string{"extension", "dataset", "metric", "value"},
	}
	if err := extHalo(&opt, r); err != nil {
		return nil, err
	}
	if err := extSuggestK(&opt, r); err != nil {
		return nil, err
	}
	return r, nil
}

func extHalo(opt *Options, r *Report) error {
	ds, err := opt.load("S2")
	if err != nil {
		return err
	}
	eng := opt.engine()
	cfg := opt.lshConfig(eng)
	res, err := core.RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		return err
	}
	_, labels, err := res.Cluster(ds, core.SelectTopK(15))
	if err != nil {
		return err
	}
	haloCfg := opt.lshConfig(eng)
	hr, err := core.RunLSHHalo(context.Background(), ds, res, labels, haloCfg)
	if err != nil {
		return err
	}
	haloN := 0
	for _, h := range hr.Halo {
		if h {
			haloN++
		}
	}
	borders := 0
	for _, b := range hr.Border {
		if b > 0 {
			borders++
		}
	}
	r.AddRow("halo", "S2", "halo points", fmt.Sprintf("%d/%d", haloN, ds.N()))
	r.AddRow("halo", "S2", "clusters with nonzero border", fmt.Sprintf("%d/%d", borders, len(hr.Border)))
	r.AddRow("halo", "S2", "extra runtime", fsec(hr.Stats.Wall))
	r.AddRow("halo", "S2", "distance computations (halo / base)",
		fmt.Sprintf("%d / %d", hr.Stats.DistanceComputations, res.Stats.DistanceComputations))
	r.AddRow("halo", "S2", "shuffle bytes (halo / base)", fmt.Sprintf("%d / %d", hr.Stats.ShuffleBytes, res.Stats.ShuffleBytes))
	return nil
}

func extSuggestK(opt *Options, r *Report) error {
	for _, tc := range []struct {
		name string
		want int
	}{
		{"Aggregation", 7},
		{"S2", 15},
	} {
		ds, err := opt.load(tc.name)
		if err != nil {
			return err
		}
		eng := opt.engine()
		res, err := core.RunLSHDDP(context.Background(), ds, opt.lshConfig(eng))
		if err != nil {
			return err
		}
		g, err := res.Graph()
		if err != nil {
			return err
		}
		got := g.SuggestK(40)
		r.AddRow("auto-k", tc.name, "suggested k (truth)", fmt.Sprintf("%d (%d)", got, tc.want))
	}
	return nil
}
