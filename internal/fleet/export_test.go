package fleet

import (
	"testing"
	"time"
)

// SetLiveness sets the probe interval and liveness timeout of routers
// started until t ends.
func SetLiveness(t testing.TB, heartbeatEvery, deadAfterFor time.Duration) {
	oldHB, oldDead := heartbeat, deadAfter
	heartbeat, deadAfter = heartbeatEvery, deadAfterFor
	t.Cleanup(func() { heartbeat, deadAfter = oldHB, oldDead })
}

// SetHedgeMinSamples sets the round-trips a shard records before its hedge
// delay applies until t ends: 0 hedges from the first request, at the 1 ms
// floor, and a count no test reaches disables hedging.
func SetHedgeMinSamples(t testing.TB, n int64) {
	old := hedgeMinSamples
	hedgeMinSamples = n
	t.Cleanup(func() { hedgeMinSamples = old })
}
