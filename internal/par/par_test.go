package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForChunks checks For's contract, on which every parallel build's
// independence of the worker count rests: k = Chunks(n, workers) chunks,
// chunk c being [n·c/k, n·(c+1)/k), every index of [0, n) visited exactly
// once, and no return before every chunk has finished.
func TestForChunks(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 7, 8, 10, 100} {
		for _, workers := range []int{1, 2, 3, 8} {
			k := Chunks(n, workers)
			if want := max(min(workers, n), 1); k != want {
				t.Errorf("Chunks(%d, %d) = %d, want %d", n, workers, k, want)
			}
			var (
				mu     sync.Mutex
				got    = make([][2]int, k)
				calls  = make([]int, k)
				visits = make([]int, n)
				done   atomic.Int32
			)
			zeroDone := make(chan struct{})
			For(n, workers, func(c, lo, hi int) {
				if c == 0 {
					close(zeroDone)
				} else {
					<-zeroDone // finish only after chunk 0, which runs last on the caller
				}
				mu.Lock()
				got[c] = [2]int{lo, hi}
				calls[c]++
				for i := lo; i < hi; i++ {
					visits[i]++
				}
				mu.Unlock()
				done.Add(1)
			})
			if d := int(done.Load()); d != k {
				t.Errorf("n=%d workers=%d: For returned after %d of %d chunks", n, workers, d, k)
			}
			for c := range k {
				if want := [2]int{n * c / k, n * (c + 1) / k}; calls[c] != 1 || got[c] != want {
					t.Errorf("n=%d workers=%d: chunk %d ran %d times, last as %v, want once as %v", n, workers, c, calls[c], got[c], want)
				}
			}
			for i, v := range visits {
				if v != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}

// TestForOneWorkerStaysOnCaller checks that one worker runs the whole range
// as chunk 0 without starting a goroutine.
func TestForOneWorkerStaysOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	calls := 0
	For(10, 1, func(c, lo, hi int) {
		calls++
		if c != 0 || lo != 0 || hi != 10 {
			t.Errorf("one worker ran f(%d, %d, %d), want f(0, 0, 10)", c, lo, hi)
		}
		if g := runtime.NumGoroutine(); g != before {
			t.Errorf("%d goroutines inside f, %d before For", g, before)
		}
	})
	if calls != 1 {
		t.Errorf("f ran %d times, want once", calls)
	}
}
