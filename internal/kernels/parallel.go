package kernels

import (
	"runtime"
	"sync"

	"repro/internal/points"
)

// How a reducer group is scanned, and the intra-partition parallelism for
// skewed groups.
//
// The paper observes (Figure 12) that at small M with large π a single LSH
// partition can hold a large fraction of the data set; the engine's
// task-level parallelism then degenerates — one reducer goroutine grinds
// through O(n²) pairs while every other core idles. Rho and Delta split the
// tile grid of such a group across a bounded worker pool: tile rows are
// dealt round-robin over the whole block list (forTiles), each worker
// accumulates into private buffers, and the partials merge deterministically
// in worker order.
//
// Determinism: the merged δ-argmin is bit-identical to the serial kernel —
// each worker tracks (best², candidate row) and the merge takes the
// lexicographic minimum, which equals the serial first-wins scan. Cutoff-
// kernel ρ is a sum of small integers, exact under any addition order, so it
// is bit-identical too. Gaussian ρ partial sums may differ from the serial
// result in the last ulps (float addition is not associative across the
// worker split); results remain deterministic for a fixed worker count.

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

// Scan is how a job's reducers scan their pairs, built once per job from
// Conf: F32 asks for the compact float32 scan with exact re-check
// (mr.scan.precision), Parallel for the worker pool on large groups. The
// zero value is the serial float64 scan.
type Scan struct {
	F32 bool
	Parallel
}

// Ran reports what one Rho or Delta call did: the distance evaluations, how
// many of them the compact scan re-checked exactly, and which scan it was.
// Compact and Parallel exclude each other, and both stay false when the
// block list holds no pair.
type Ran struct {
	Pairs    int64
	Rechecks int64
	Compact  bool
	Parallel bool
}

// plan is the one place a group's scan is chosen: a group of at least
// Threshold rows runs the float64 worker pool — m's rows, the count the
// pool deals tile rows over, cross blocks included — and otherwise F32 runs
// the compact scan. It reads the group's size and the job's Conf only, so
// every engine makes the same choice and counts it the same. w is the pool
// size, 1 off the parallel path (and on it, when the list has one tile row
// or the process one CPU).
func (s Scan) plan(n int, blocks []Block) (ran Ran, w int) {
	ran.Pairs = blockPairs(blocks)
	switch {
	case ran.Pairs == 0:
	case s.Threshold > 0 && n >= s.Threshold:
		ran.Parallel = true
		return ran, s.workers(tileRows(blocks))
	case s.F32:
		ran.Compact = true
	}
	return ran, 1
}

// rhoPool runs scan on w workers, each crediting a private accumulator, and
// folds them into scan.cr in worker order: exact for the cutoff kernel
// (integer counts), deterministic for Gaussian sums at a fixed worker count.
func rhoPool(blocks []Block, scan rhoScan, w int) {
	cr := scan.cr
	parts := make([]Credit, w)
	var wg sync.WaitGroup
	for wi := range parts {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			part := &parts[wi]
			*part = Credit{Layouts: cr.Layouts, Own: cr.Own, Sig: cr.Sig}
			part.Reset(scan.n, scan.k)
			mine := scan
			mine.cr = part
			forTiles(blocks, wi, w, mine.tile)
		}(wi)
	}
	wg.Wait()
	for wi := range parts {
		cr.add(&parts[wi])
	}
}

// deltaPool folds blocks into acc, whose rows are already ranked, on w
// workers. Each worker tracks (best², candidate row) privately and the
// merge takes the lexicographic minimum per row. Every pair was evaluated by
// exactly one worker, so the partial candidate sets partition the serial
// candidate sequence, and because a row's candidates arrive in ascending
// row order (forTiles) that minimum is the serial first-wins winner — also
// against state acc carries in from earlier calls, whose candidate rows all
// precede these.
func deltaPool(m *points.Matrix, blocks []Block, acc *DeltaAcc, w int) {
	n, withMax := len(acc.Best2), acc.Max2 != nil
	parts := make([]*DeltaAcc, w)
	var wg sync.WaitGroup
	for wi := range parts {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			part := NewDeltaAcc(n, withMax)
			part.rank = acc.rank // read-only from here on
			parts[wi] = part
			forTiles(blocks, wi, w, func(aLo, aHi, bLo, bHi int, diag bool) {
				deltaTile(m, aLo, aHi, bLo, bHi, diag, part)
			})
		}(wi)
	}
	wg.Wait()
	for _, part := range parts {
		for x := 0; x < n; x++ {
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
}
