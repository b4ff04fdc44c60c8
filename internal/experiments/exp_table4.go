package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eddpc"
)

// ExpTable4 regenerates Table IV: LSH-DDP vs EDDPC (and Basic-DDP for
// reference) on BigCross500K — runtime, shuffled data, and distance
// measurements.
//
// The paper's shape: LSH-DDP needs less runtime and much less shuffled
// data than EDDPC, while computing MORE distances (EDDPC's Voronoi
// filtering prunes distance work aggressively but pays in replication
// shuffle and exactness bookkeeping); both beat Basic-DDP.
func ExpTable4(opt Options) (*Report, error) {
	ds, err := opt.load("BigCross500K")
	if err != nil {
		return nil, err
	}
	eng := opt.engine()

	opt.logf("table4: N=%d running Basic-DDP...", ds.N())
	basic, err := core.RunBasicDDP(context.Background(), ds, opt.basicConfig(eng))
	if err != nil {
		return nil, err
	}
	opt.logf("table4: running EDDPC...")
	ed, err := eddpc.Run(context.Background(), ds, eddpc.Config{
		Config: core.Config{Engine: eng, Seed: opt.Seed},
	})
	if err != nil {
		return nil, err
	}
	opt.logf("table4: running LSH-DDP...")
	lshRes, err := core.RunLSHDDP(context.Background(), ds, opt.lshConfig(eng))
	if err != nil {
		return nil, err
	}

	r := &Report{
		Title:   fmt.Sprintf("Table IV: comparison with EDDPC on BigCross500K (N=%d)", ds.N()),
		Columns: []string{"algorithm", "exact", "runtime", "shuffle", "dist"},
	}
	r.AddRow("Basic-DDP", "yes", fsec(basic.Stats.Wall), fmb(basic.Stats.ShuffleBytes), fcount(basic.Stats.DistanceComputations))
	r.AddRow("EDDPC", "yes", fsec(ed.Stats.Wall), fmb(ed.Stats.ShuffleBytes), fcount(ed.Stats.DistanceComputations))
	r.AddRow("LSH-DDP", "approx", fsec(lshRes.Stats.Wall), fmb(lshRes.Stats.ShuffleBytes), fcount(lshRes.Stats.DistanceComputations))
	r.Notes = append(r.Notes,
		"expected shape: LSH-DDP fastest with least shuffle but more distance computations than EDDPC; both beat Basic-DDP")
	return r, nil
}
