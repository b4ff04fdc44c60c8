package mapreduce

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Built-in counter names. User code may add arbitrary additional counters
// (the density-peaks jobs use "dp.distance.computations").
const (
	CtrMapInputRecords  = "map.input.records"
	CtrMapOutputRecords = "map.output.records"
	// CtrShuffleBytes is the volume of intermediate data handed to the
	// shuffle, measured AFTER the combiner when one is configured —
	// the same place Hadoop's reduce-shuffle-bytes counter measures.
	// This is the paper's Figure 10(b) metric.
	CtrShuffleBytes        = "shuffle.bytes"
	CtrShuffleRecords      = "shuffle.records"
	CtrCombineInputRecords = "combine.input.records"
	CtrReduceInputGroups   = "reduce.input.groups"
	CtrReduceInputRecords  = "reduce.input.records"
	CtrReduceOutputRecords = "reduce.output.records"
	CtrSpilledRuns         = "spill.runs"
	CtrSpilledBytes        = "spill.bytes"

	// CtrShuffleWireBytes and CtrShuffleWireBytesCompressed account the
	// rpcmr streaming shuffle at the transport level, per remote fetch:
	// wire.bytes is the framed payload plus chunk headers before
	// compression, wire.bytes.compressed what actually crossed the TCP
	// connection (equal when compression is off or did not help). They are
	// deliberately separate from CtrShuffleBytes, which stays the paper's
	// LOGICAL metric — post-combiner intermediate volume — and is identical
	// across engines and transports. Local (same-worker) fetches touch no
	// wire and count nothing here.
	CtrShuffleWireBytes           = "shuffle.wire.bytes"
	CtrShuffleWireBytesCompressed = "shuffle.wire.bytes.compressed"
)

// CtrDistanceComputations is the user counter every clustering job in this
// repository increments once per pairwise distance evaluation — the paper's
// Figure 10(c) metric. It lives here so all algorithm packages agree on the
// name.
const CtrDistanceComputations = "dp.distance.computations"

// Counters is a concurrency-safe named counter set. Hot paths should hoist
// Cell(name) out of the loop and call Add on the cell; occasional updates
// can go through Add on the set itself.
type Counters struct {
	mu sync.Mutex
	m  map[string]*int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*int64)}
}

// Cell is a handle on one named counter, valid for the lifetime of its
// Counters set. It is a value type wrapping the underlying slot, so hot
// loops pay one map lookup up front and a single atomic add per update.
type Cell struct {
	p *int64
}

// Add atomically adds delta to the cell. The zero Cell is a no-op, so
// counter updates stay safe even when a task runs without counters.
func (c Cell) Add(delta int64) {
	if c.p != nil {
		atomic.AddInt64(c.p, delta)
	}
}

// Load returns the cell's current value.
func (c Cell) Load() int64 {
	if c.p == nil {
		return 0
	}
	return atomic.LoadInt64(c.p)
}

// Cell returns the handle for the named counter, creating it at zero.
func (c *Counters) Cell(name string) Cell {
	return Cell{p: c.slot(name)}
}

// slot returns the addressable storage for name, creating it at zero.
func (c *Counters) slot(name string) *int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[name]
	if !ok {
		p = new(int64)
		c.m[name] = p
	}
	return p
}

// Add atomically adds delta to the named counter.
func (c *Counters) Add(name string, delta int64) {
	atomic.AddInt64(c.slot(name), delta)
}

// Get returns the current value of the named counter (0 when absent).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	p, ok := c.m[name]
	c.mu.Unlock()
	if !ok {
		return 0
	}
	return atomic.LoadInt64(p)
}

// Merge adds every counter of o into c.
func (c *Counters) Merge(o *Counters) {
	for name, v := range o.Snapshot() {
		c.Add(name, v)
	}
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for name, p := range c.m {
		out[name] = atomic.LoadInt64(p)
	}
	return out
}

// String renders the counters sorted by name, one per line.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-28s %d\n", name, snap[name])
	}
	return b.String()
}
