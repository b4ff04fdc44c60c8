package serve

import "testing"

// MaxRequestPoints is the per-request point cap, for tests that cross it.
const MaxRequestPoints = maxRequestPoints

// SetQueueDepth shrinks the admission queue of servers New builds until t
// ends.
func SetQueueDepth(t testing.TB, n int) {
	old := queueDepth
	queueDepth = n
	t.Cleanup(func() { queueDepth = old })
}
