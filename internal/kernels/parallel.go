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
// split the tile grid of such a group across a bounded worker pool:
// tile-rows are dealt round-robin (upper-triangle rows shrink toward the
// bottom, so striding balances load), each worker accumulates into private
// buffers, and the partials merge deterministically in worker order.
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
	n := hi - lo
	nTiles := (n + tile - 1) / tile
	w := 0
	if p.Enabled(n) {
		w = p.workers(nTiles)
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
			// Tile-rows dealt round-robin; each owns its diagonal tile and
			// every tile to its right, accumulating both sides privately.
			for tr := wi; tr < nTiles; tr += w {
				ti := lo + tr*tile
				tiHi := min(ti+tile, hi)
				rhoTile(data, dim, ti, tiHi, ti, tiHi, true, k, part, true)
				for tj := tiHi; tj < hi; tj += tile {
					rhoTile(data, dim, ti, tiHi, tj, min(tj+tile, hi), false, k, part, true)
				}
			}
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
	return int64(n) * int64(n-1) / 2
}

// DeltaArgminAuto is DeltaArgmin with the parallel path engaged for groups
// at or above p.Threshold. The merged result is bit-identical to the
// serial kernel (see the package comment).
func DeltaArgminAuto(m *points.Matrix, lo, hi int, acc *DeltaAcc, p Parallel) int64 {
	n := hi - lo
	nTiles := (n + tile - 1) / tile
	w := 0
	if p.Enabled(n) {
		w = p.workers(nTiles)
	}
	if w <= 1 {
		return DeltaArgmin(m, lo, hi, acc)
	}
	withMax := acc.Max2 != nil
	acc.rankRows(m, lo, hi, 0, 0) // ranked once; the workers' partials only read it
	partials := make([]*DeltaAcc, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			part := NewDeltaAcc(hi, withMax)
			part.rank = acc.rank
			partials[wi] = part
			for tr := wi; tr < nTiles; tr += w {
				ti := lo + tr*tile
				tiHi := min(ti+tile, hi)
				deltaTile(m, ti, tiHi, ti, tiHi, true, part)
				for tj := tiHi; tj < hi; tj += tile {
					deltaTile(m, ti, tiHi, tj, min(tj+tile, hi), false, part)
				}
			}
		}(wi)
	}
	wg.Wait()
	// Per-row merge. Each pair was evaluated by exactly one worker, so the
	// partial candidate sets partition the serial candidate sequence; the
	// lexicographic (best², candidate row) minimum reproduces the serial
	// first-wins scan exactly, even against state acc carried in from
	// earlier chunks (whose candidate rows all precede this range).
	for _, part := range partials {
		for x := lo; x < hi; x++ {
			if withMax && part.Max2[x] > acc.Max2[x] {
				acc.Max2[x] = part.Max2[x]
			}
			if part.Up[x] < 0 {
				continue
			}
			if part.Best2[x] < acc.Best2[x] ||
				(part.Best2[x] == acc.Best2[x] && (acc.Up[x] < 0 || part.Up[x] < acc.Up[x])) {
				acc.Best2[x] = part.Best2[x]
				acc.Up[x] = part.Up[x]
			}
		}
	}
	return int64(n) * int64(n-1) / 2
}
