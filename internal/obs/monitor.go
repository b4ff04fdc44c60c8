package obs

import (
	"fmt"
	"time"
)

// Monitor periodically samples a counter snapshot and logs throughput
// deltas as progress lines, so a long-running job shows live
// records/s and shuffle MB/s instead of only end-of-run totals. The
// snapshot function must be safe to call from another goroutine (the
// engines' Counters.Snapshot is).
type Monitor struct {
	stop chan struct{}
	done chan struct{}
}

// Counter names the monitor reports rates for (kept here so obs does not
// import the mapreduce package).
const (
	ctrMapOutputRecords = "map.output.records"
	ctrShuffleBytes     = "shuffle.bytes"
	ctrReduceOutRecords = "reduce.output.records"
	// ctrShuffleWireBytes is the rpcmr streaming transport's fetched
	// volume, reported when present beside the logical shuffle volume.
	ctrShuffleWireBytes = "shuffle.wire.bytes"
)

// StartMonitor begins sampling snapshot every interval and passing one
// progress line per tick to logf until Stop is called. A final line is
// logged on Stop so short jobs still produce one snapshot.
func StartMonitor(job string, interval time.Duration, snapshot func() map[string]int64, logf func(format string, args ...any)) *Monitor {
	m := &Monitor{stop: make(chan struct{}), done: make(chan struct{})}
	go m.loop(job, interval, snapshot, logf)
	return m
}

func (m *Monitor) loop(job string, interval time.Duration, snapshot func() map[string]int64, logf func(format string, args ...any)) {
	defer close(m.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	prev := snapshot()
	prevAt := time.Now()
	emit := func() {
		cur := snapshot()
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		if dt <= 0 {
			return
		}
		dRec := cur[ctrMapOutputRecords] - prev[ctrMapOutputRecords]
		dBytes := cur[ctrShuffleBytes] - prev[ctrShuffleBytes]
		wire := ""
		if w := cur[ctrShuffleWireBytes]; w > 0 {
			wire = fmt.Sprintf(", %.2f MB wire", float64(w)/(1<<20))
		}
		logf("progress: job %s: %d map records (+%.0f rec/s), %.2f MB shuffled (+%.2f MB/s)%s, %d reduce records",
			job, cur[ctrMapOutputRecords], float64(dRec)/dt,
			float64(cur[ctrShuffleBytes])/(1<<20), float64(dBytes)/dt/(1<<20),
			wire, cur[ctrReduceOutRecords])
		prev, prevAt = cur, now
	}
	for {
		select {
		case <-m.stop:
			emit()
			return
		case <-ticker.C:
			emit()
		}
	}
}

// Stop ends the sampling loop after a final snapshot line.
func (m *Monitor) Stop() {
	close(m.stop)
	<-m.done
}
