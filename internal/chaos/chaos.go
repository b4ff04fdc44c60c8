// Package chaos is a deterministic fault-injection harness for drilling
// the distributed stack in tests: the rpcmr workers, the fleet's shard
// replicas and the ingest WAL. Everything is seeded and count-based rather
// than time- or probability-based, so a failing run replays identically:
//
//   - Chaos: a seeded source of reproducible randomness (Intn, FlipBit);
//   - Node: a registered process-like unit (worker, shard replica) with
//     Kill/Restart, built from stop/start closures;
//   - OnNth: a one-shot trigger that fires on the Nth call of a hook —
//     the building block for "kill the worker on its 2nd shuffle chunk".
//     A stall is an OnNth closure that sleeps.
//
// The package deliberately imports nothing from the rest of the repo: the
// systems under test expose hook points (e.g. serve.Config.ProcessHook)
// and the harness supplies the closures.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Chaos is a seeded fault-injection context. The zero value is not
// usable; construct with New. Safe for concurrent use.
type Chaos struct {
	mu    sync.Mutex
	rng   *rand.Rand
	nodes map[string]*Node
}

// New returns a harness whose random choices are fully determined by
// seed.
func New(seed int64) *Chaos {
	return &Chaos{
		rng:   rand.New(rand.NewSource(seed)),
		nodes: make(map[string]*Node),
	}
}

// Intn returns a deterministic pseudo-random int in [0, n).
func (c *Chaos) Intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// FlipBit flips one seeded-random bit of data in place and returns the
// byte index it touched (-1 if data is empty) — simulated bit rot.
func (c *Chaos) FlipBit(data []byte) int {
	if len(data) == 0 {
		return -1
	}
	c.mu.Lock()
	i := c.rng.Intn(len(data))
	bit := c.rng.Intn(8)
	c.mu.Unlock()
	data[i] ^= 1 << bit
	return i
}

// Node is a registered process-like unit the harness can kill and
// restart. Kill and Restart are idempotent and safe to call from inside
// the victim's own hooks (the closures must not deadlock against the
// caller; run a stop that waits on the victim's own work, such as
// rpcmr's Worker.Close, off the hook goroutine).
type Node struct {
	name  string
	mu    sync.Mutex
	alive bool
	stop  func() error
	start func() error
}

// Register adds a kill/restart-able unit. stop must bring the unit down
// hard; start must bring a fresh instance up (it may be nil if the unit
// never restarts in the scenario).
func (c *Chaos) Register(name string, stop, start func() error) *Node {
	n := &Node{name: name, alive: true, stop: stop, start: start}
	c.mu.Lock()
	c.nodes[name] = n
	c.mu.Unlock()
	return n
}

// Node returns a registered node by name (nil if unknown).
func (c *Chaos) Node(name string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// Kill stops the node if it is alive. Returns the stop error, if any.
func (n *Node) Kill() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil
	}
	n.alive = false
	if n.stop == nil {
		return nil
	}
	return n.stop()
}

// Restart brings a killed node back with its start closure.
func (n *Node) Restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive {
		return nil
	}
	if n.start == nil {
		return fmt.Errorf("chaos: node %s has no restart", n.name)
	}
	if err := n.start(); err != nil {
		return err
	}
	n.alive = true
	return nil
}

// Alive reports whether the node is currently up.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Name returns the node's registered name.
func (n *Node) Name() string { return n.name }

// OnNth returns a trigger function that runs fn exactly once, on its Nth
// invocation (1-based). Wire it into a hook to fire a fault at a precise
// point in the execution: "on the 2nd shuffle chunk, kill worker 0".
func OnNth(n int64, fn func()) func() {
	if n < 1 {
		n = 1
	}
	var calls int64
	return func() {
		if atomic.AddInt64(&calls, 1) == n {
			fn()
		}
	}
}
