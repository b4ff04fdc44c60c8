// Package par runs the independent pieces of a build on their own
// goroutines: a range of items cut into contiguous chunks, one goroutine per
// chunk, waited for before the call returns. The serving index build, its
// row order, the q8 codes and the fleet partitioner use it; each lays its
// chunks out so that its output does not depend on how many there are.
package par

import "sync"

// Chunks returns how many chunks For cuts n items into for workers
// goroutines: workers, at most n, at least 1.
func Chunks(n, workers int) int { return max(min(workers, n), 1) }

// For cuts [0, n) into k = Chunks(n, workers) contiguous chunks, chunk c
// being [n·c/k, n·(c+1)/k), and runs f(c, lo, hi) on each: chunk 0 on the
// calling goroutine and every other on its own. It returns when all have,
// so one worker runs f(0, 0, n) and starts no goroutine.
func For(n, workers int, f func(c, lo, hi int)) {
	k := Chunks(n, workers)
	var wg sync.WaitGroup
	for c := 1; c < k; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c, n*c/k, n*(c+1)/k)
		}()
	}
	f(0, 0, n/k)
	wg.Wait()
}
