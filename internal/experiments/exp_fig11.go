package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kmeansmr"
)

// ExpFig11 regenerates Figure 11: cumulative runtime of distributed
// K-means per iteration vs the total runtime of LSH-DDP, on the BigCross
// set. The paper runs K-means for 100 iterations and finds LSH-DDP's total
// corresponds to roughly the 24th iteration.
func ExpFig11(opt Options) (*Report, error) {
	ds, err := opt.load("BigCross")
	if err != nil {
		return nil, err
	}
	eng := opt.engine()

	opt.logf("fig11: N=%d running LSH-DDP...", ds.N())
	lshRes, err := core.RunLSHDDP(context.Background(), ds, opt.lshConfig(eng))
	if err != nil {
		return nil, err
	}

	iters := 100
	if opt.scale() > 1 {
		iters = 30 // benchmarks truncate the iteration sweep
	}
	opt.logf("fig11: running distributed K-means for %d iterations...", iters)
	km, err := kmeansmr.Run(context.Background(), ds, kmeansmr.Config{
		Engine:  eng,
		K:       16,
		MaxIter: iters,
		Seed:    opt.Seed,
	})
	if err != nil {
		return nil, err
	}

	// Find the iteration whose cumulative time first exceeds LSH-DDP's.
	var cum time.Duration
	crossover := -1
	cumAt := make([]time.Duration, len(km.Iterations))
	for i, it := range km.Iterations {
		cum += it.Wall
		cumAt[i] = cum
		if crossover == -1 && cum >= lshRes.Stats.Wall {
			crossover = it.Iteration
		}
	}

	r := &Report{
		Title:   fmt.Sprintf("Figure 11: K-means cumulative runtime vs LSH-DDP on BigCross (N=%d, k=16)", ds.N()),
		Columns: []string{"iteration", "iter-time", "cumulative", "vs-LSH-DDP"},
	}
	for i, it := range km.Iterations {
		if (i+1)%5 != 0 && i != 0 && i != len(km.Iterations)-1 {
			continue // print every 5th row
		}
		marker := ""
		if cumAt[i] >= lshRes.Stats.Wall {
			marker = ">= LSH-DDP total"
		}
		r.AddRow(fmt.Sprintf("%d", it.Iteration), fsec(it.Wall), fsec(cumAt[i]), marker)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("LSH-DDP total runtime: %s", fsec(lshRes.Stats.Wall)),
		fmt.Sprintf("K-means cumulative time passes LSH-DDP at iteration %d of %d (paper: ~24 of 100)", crossover, iters),
	)
	if crossover == -1 {
		r.Notes = append(r.Notes, "K-means never reached LSH-DDP's total within the sweep")
	}
	// The in-process engine pays essentially zero per-job startup cost,
	// which flatters K-means: on the paper's Hadoop cluster every one of
	// the 100 iterations is a full job submission costing tens of seconds
	// of scheduling — most of what LSH-DDP's short fixed pipeline avoids.
	// Report the crossover under a modeled Hadoop-like 30s overhead per job
	// of either, clearly labeled as a model.
	const jobOverhead = 30 * time.Second
	lshAdj := lshRes.Stats.Wall + time.Duration(len(lshRes.Stats.Jobs))*jobOverhead
	cum = 0
	modelCross := -1
	for i, it := range km.Iterations {
		cum += it.Wall + jobOverhead
		if cum >= lshAdj {
			modelCross = i + 1
			break
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"with a modeled 30s Hadoop job-startup overhead per job, the crossover is iteration %d (paper: ~24)", modelCross))
	return r, nil
}
