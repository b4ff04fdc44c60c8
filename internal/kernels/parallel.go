package kernels

import (
	"runtime"
	"sync"

	"repro/internal/points"
)

// Intra-partition parallelism for skewed reducer groups.
//
// The paper observes (Figure 12) that at small M with large π a single LSH
// partition can hold a large fraction of the data set; the engine's
// task-level parallelism then degenerates — one reducer goroutine grinds
// through O(n²) pairs while every other core idles. The Auto kernels below
// and the block kernels (blocks.go) split the tile grid of such a group
// across a bounded worker pool: tile-rows are dealt round-robin (forTiles),
// each worker accumulates into private buffers, and the partials merge
// deterministically in worker order.
//
// Determinism: the merged δ-argmin is bit-identical to the serial kernel —
// each worker tracks (best², candidate row) and the merge takes the
// lexicographic minimum, which equals the serial first-wins scan. Cutoff-
// kernel ρ is a sum of small integers, exact in float64 under any addition
// order, so it is bit-identical too. Gaussian ρ partial sums may differ
// from the serial result in the last ulps (float addition is not
// associative across the worker split); results remain deterministic for a
// fixed worker count.

// Parallel configures the intra-partition parallel path. The zero value
// disables it, keeping every reducer group on the serial (bit-identical)
// kernels.
type Parallel struct {
	// Threshold is the minimum group size (rows) that triggers the
	// parallel path; <=0 disables it.
	Threshold int
	// Workers bounds the per-group worker pool; <=0 means GOMAXPROCS,
	// capped at 16.
	Workers int
}

// Enabled reports whether a group of n rows takes the parallel path.
func (p Parallel) Enabled(n int) bool { return p.Threshold > 0 && n >= p.Threshold }

func (p Parallel) workers(nTileRows int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > 16 {
		w = 16
	}
	if w > nTileRows {
		w = nTileRows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RhoAccumulateAuto is RhoAccumulate with the parallel path engaged for
// groups at or above p.Threshold.
func RhoAccumulateAuto(m *points.Matrix, lo, hi int, k Kernel, rho []float64, p Parallel) int64 {
	blocks := []Block{Triangle(lo, hi)}
	w := 0
	if p.Enabled(hi - lo) {
		w = p.workers(tileRows(blocks))
	}
	if w <= 1 {
		return RhoAccumulate(m, lo, hi, k, rho)
	}
	data, dim := m.Data(), m.Dim()
	partials := make([][]float64, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			part := make([]float64, hi)
			partials[wi] = part
			forTiles(blocks, wi, w, func(aLo, aHi, bLo, bHi int, diag bool) {
				rhoTile(data, dim, aLo, aHi, bLo, bHi, diag, k, part, true)
			})
		}(wi)
	}
	wg.Wait()
	// Merge in worker order: exact for the cutoff kernel (integer sums),
	// deterministic for Gaussian at a fixed worker count.
	for _, part := range partials {
		for x := lo; x < hi; x++ {
			rho[x] += part[x]
		}
	}
	return blocks[0].Pairs()
}

// DeltaArgminAuto is DeltaArgmin with the parallel path engaged for groups
// at or above p.Threshold. The merged result is bit-identical to the
// serial kernel (see deltaBlocks).
func DeltaArgminAuto(m *points.Matrix, lo, hi int, acc *DeltaAcc, p Parallel) int64 {
	blocks := []Block{Triangle(lo, hi)}
	if blocks[0].Pairs() == 0 {
		return 0
	}
	w := 1
	if p.Enabled(hi - lo) {
		w = p.workers(tileRows(blocks))
	}
	acc.rankRows(m, lo, hi, 0, 0)
	return deltaBlocks(m, blocks, acc, w)
}
