package dfs

import (
	"fmt"
	"net"
	"net/rpc"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Protocol types for the replicated block store.

// blockMeta names one block and where its replicas live.
type blockMeta struct {
	ID       int64
	Size     int
	Replicas []string // datanode addresses
}

type fileMeta struct {
	Name   string
	Size   int64
	Blocks []blockMeta
}

// RegisterNodeArgs / RegisterNodeReply: datanode sign-on.
type RegisterNodeArgs struct{ Addr string }

// RegisterNodeReply returns the namenode-assigned node id.
type RegisterNodeReply struct{ NodeID int }

// HeartbeatArgs is a datanode's periodic liveness signal plus its full
// block report — the namenode's only source of truth about which replicas
// actually exist (the HDFS heartbeat + block-report design, merged).
type HeartbeatArgs struct {
	Addr   string
	Blocks []int64
}

// ReplicateCmd orders the receiving datanode to push its replica of block
// ID to the Target datanode.
type ReplicateCmd struct {
	ID     int64
	Target string
}

// HeartbeatReply piggybacks namenode→datanode commands on the heartbeat
// response, HDFS-style: blocks this node should re-replicate to a peer,
// and orphaned replicas it should delete.
type HeartbeatReply struct {
	Replicate []ReplicateCmd
	Delete    []int64
}

// ReportCorruptArgs flags one replica as checksum-corrupt. The reporting
// datanode has already quarantined its copy; the namenode drops the
// replica from its metadata so the re-replication loop restores the
// block from a healthy copy.
type ReportCorruptArgs struct {
	Addr string
	ID   int64
}

// ReportCorruptReply acknowledges a corruption report.
type ReportCorruptReply struct{}

// ReportArgs / ReportReply: the dfsadmin cluster-state view.
type ReportArgs struct{}

// NodeReport describes one datanode in a cluster report.
type NodeReport struct {
	Addr   string
	Alive  bool
	Blocks int
	AgeMS  int64 // milliseconds since the last heartbeat
}

// ReportReply is the operator's cluster snapshot: node liveness, file and
// block totals, replication health, and the namenode's counters.
type ReportReply struct {
	Nodes           []NodeReport
	Files           int
	Blocks          int
	UnderReplicated int
	Counters        map[string]int64
}

// CreateArgs asks the namenode to allocate blocks for a file of the given
// sizes; the reply carries the replica placement per block.
type CreateArgs struct {
	Name       string
	BlockSizes []int
}

// CreateReply carries the replica placement per allocated block.
type CreateReply struct {
	Blocks []blockMeta
}

// CommitArgs finalizes a file after all replicas were written. The replica
// lists may be a subset of the allocated placement: the client commits
// whichever replicas it actually managed to write (at least one per
// block), and the re-replication loop restores the target count.
type CommitArgs struct {
	Name   string
	Blocks []blockMeta
}

// CommitReply acknowledges a file commit.
type CommitReply struct{}

// LookupArgs / LookupReply: read path.
type LookupArgs struct{ Name string }

// LookupReply carries a file's metadata. Replica lists are ordered
// live-first so clients try healthy datanodes before dead ones.
type LookupReply struct{ File fileMeta }

// ListArgs / ListReply.
type ListArgs struct{ Prefix string }

// ListReply carries the matching file names.
type ListReply struct{ Names []string }

// DeleteArgs / DeleteReply.
type DeleteArgs struct{ Name string }

// DeleteReply returns the deleted file's blocks for garbage collection.
type DeleteReply struct{ Blocks []blockMeta }

// WriteBlockArgs / WriteBlockReply: client → datanode.
type WriteBlockArgs struct {
	ID   int64
	Data []byte
}

// WriteBlockReply acknowledges a replica write.
type WriteBlockReply struct{}

// ReadBlockArgs / ReadBlockReply: client → datanode.
type ReadBlockArgs struct{ ID int64 }

// ReadBlockReply carries one replica's bytes and the CRC32-C recorded at
// write time, so clients can verify end-to-end.
type ReadBlockReply struct {
	Data []byte
	Crc  uint32
}

// DeleteBlocksArgs / DeleteBlocksReply: namenode/client → datanode.
type DeleteBlocksArgs struct{ IDs []int64 }

// DeleteBlocksReply acknowledges replica deletion.
type DeleteBlocksReply struct{}

// Counter names the namenode maintains; read them with NameNode.Counters
// (or remotely via the dfsadmin Report RPC).
const (
	// CtrHeartbeats counts heartbeats processed.
	CtrHeartbeats = "dfs.heartbeats"
	// CtrRereplications counts completed re-replication copies (confirmed
	// by the target's block report).
	CtrRereplications = "dfs.rereplications"
	// CtrBlocksCorrupt counts corrupt replicas reported and quarantined.
	CtrBlocksCorrupt = "dfs.blocks.corrupt"
	// CtrNodesDead counts datanodes declared dead (cumulative; a node
	// that flaps counts once per death).
	CtrNodesDead = "dfs.nodes.dead"
	// CtrBlocksUnderReplicated is a gauge: blocks below their target
	// live-replica count as of the last replication sweep.
	CtrBlocksUnderReplicated = "dfs.blocks.underreplicated"
)

// NameNodeOptions configures a namenode's fault-tolerance machinery.
// The zero value gives the documented defaults.
type NameNodeOptions struct {
	// Replication is the target replica count per block (default 2,
	// capped at the number of live datanodes at allocation time).
	Replication int
	// HeartbeatTimeout declares a datanode dead when no heartbeat arrives
	// within it (default 3s). Dead nodes are excluded from placement and
	// their replicas scheduled for re-replication.
	HeartbeatTimeout time.Duration
	// ReplicateInterval is the period of the background sweep that scans
	// for dead nodes and under-replicated blocks (default 500ms).
	ReplicateInterval time.Duration
	// AllocGrace is how long an allocated-but-uncommitted block is
	// protected from orphan garbage collection (default 10s) — it covers
	// the window between Create and Commit during a Put.
	AllocGrace time.Duration
	// Events, when non-nil, receives liveness and replication events.
	Events obs.Sink
}

func (o NameNodeOptions) withDefaults() NameNodeOptions {
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 3 * time.Second
	}
	if o.ReplicateInterval <= 0 {
		o.ReplicateInterval = 500 * time.Millisecond
	}
	if o.AllocGrace <= 0 {
		o.AllocGrace = 10 * time.Second
	}
	if o.Events == nil {
		o.Events = obs.Discard
	}
	return o
}

// nodeState is the namenode's view of one datanode.
type nodeState struct {
	addr     string
	id       int
	lastSeen time.Time
	alive    bool
	blocks   map[int64]bool // last block report
	cmds     []ReplicateCmd // re-replication orders, delivered on heartbeat
}

// blockLoc locates a committed block inside the file metadata.
type blockLoc struct {
	file string
	idx  int
}

// pendingRepl tracks one in-flight re-replication order.
type pendingRepl struct {
	source string
	target string
	issued time.Time
}

// NameNode holds all file metadata, tracks datanode liveness through
// heartbeats, allocates block placements round-robin across live
// datanodes, and runs the background re-replication sweep.
type NameNode struct {
	opts NameNodeOptions

	lis  net.Listener
	addr string

	mu      sync.Mutex
	order   []string // datanode addresses in registration order
	nodes   map[string]*nodeState
	files   map[string]*fileMeta
	blocks  map[int64]blockLoc
	alloc   map[int64]time.Time // created but not yet committed
	pending map[int64]pendingRepl
	nextBlk int64
	rrNext  int
	spans   []obs.Span

	ctrHeartbeats     int64
	ctrRereplications int64
	ctrCorrupt        int64
	ctrDead           int64
	gaugeUnder        int64

	quit chan struct{}
	done chan struct{}
}

// NewNameNode starts a namenode listening on addr (":0" picks a port) with
// default fault-tolerance options.
func NewNameNode(addr string, replication int) (*NameNode, error) {
	return NewNameNodeOpts(addr, NameNodeOptions{Replication: replication})
}

// NewNameNodeOpts starts a namenode with explicit options.
func NewNameNodeOpts(addr string, opts NameNodeOptions) (*NameNode, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dfs: namenode listen: %w", err)
	}
	n := &NameNode{
		opts:    opts.withDefaults(),
		lis:     lis,
		addr:    lis.Addr().String(),
		nodes:   make(map[string]*nodeState),
		files:   make(map[string]*fileMeta),
		blocks:  make(map[int64]blockLoc),
		alloc:   make(map[int64]time.Time),
		pending: make(map[int64]pendingRepl),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("NameNode", &nameNodeRPC{n: n}); err != nil {
		lis.Close()
		return nil, err
	}
	go acceptRPC(lis, srv)
	go n.sweepLoop()
	return n, nil
}

func acceptRPC(lis net.Listener, srv *rpc.Server) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		go srv.ServeConn(conn)
	}
}

// Addr returns the namenode's dialable address.
func (n *NameNode) Addr() string { return n.addr }

// Close stops the namenode and its replication sweep.
func (n *NameNode) Close() error {
	select {
	case <-n.quit:
		return nil
	default:
	}
	close(n.quit)
	err := n.lis.Close()
	<-n.done
	return err
}

// LiveNodeCount returns the number of datanodes currently considered live.
func (n *NameNode) LiveNodeCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	live := 0
	for _, s := range n.nodes {
		if s.alive {
			live++
		}
	}
	return live
}

// Counters snapshots the namenode's fault-tolerance counters (see the
// Ctr* constants).
func (n *NameNode) Counters() map[string]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return map[string]int64{
		CtrHeartbeats:            n.ctrHeartbeats,
		CtrRereplications:        n.ctrRereplications,
		CtrBlocksCorrupt:         n.ctrCorrupt,
		CtrNodesDead:             n.ctrDead,
		CtrBlocksUnderReplicated: n.gaugeUnder,
	}
}

// Spans returns one obs.Span per completed re-replication (phase
// "rereplicate", Task = block id, Bytes = block size, Wall = time from
// scheduling to the target's confirming block report).
func (n *NameNode) Spans() []obs.Span {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]obs.Span(nil), n.spans...)
}

func (n *NameNode) eventf(format string, args ...any) {
	n.opts.Events.Event("dfs", format, args...)
}

// liveAddrs returns live datanode addresses in registration order.
// Callers hold n.mu.
func (n *NameNode) liveAddrs() []string {
	live := make([]string, 0, len(n.order))
	for _, addr := range n.order {
		if n.nodes[addr].alive {
			live = append(live, addr)
		}
	}
	return live
}

// sweepLoop periodically declares silent datanodes dead and schedules
// re-replication for under-replicated blocks.
func (n *NameNode) sweepLoop() {
	defer close(n.done)
	interval := n.opts.ReplicateInterval
	if half := n.opts.HeartbeatTimeout / 2; half < interval {
		interval = half
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-t.C:
			n.sweep()
		}
	}
}

// sweep is one pass of the liveness + re-replication loop.
func (n *NameNode) sweep() {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()

	// Liveness: a node silent for longer than the heartbeat timeout is
	// dead — out of placement, its replicas no longer counted.
	for _, s := range n.nodes {
		if s.alive && now.Sub(s.lastSeen) > n.opts.HeartbeatTimeout {
			s.alive = false
			s.cmds = nil
			n.ctrDead++
			n.eventf("datanode %s dead (no heartbeat for %v)", s.addr, now.Sub(s.lastSeen).Round(time.Millisecond))
		}
	}
	live := n.liveAddrs()

	// A pending order is considered stuck (and reissued) after this long.
	pendingTimeout := 3 * n.opts.HeartbeatTimeout

	var under int64
	for id, loc := range n.blocks {
		bm := &n.files[loc.file].Blocks[loc.idx]
		liveReplicas := 0
		for _, r := range bm.Replicas {
			if s, ok := n.nodes[r]; ok && s.alive {
				liveReplicas++
			}
		}
		target := n.opts.Replication
		if target > len(live) {
			target = len(live)
		}
		if target == 0 {
			continue
		}
		if liveReplicas >= target {
			delete(n.pending, id)
			// Fully replicated on live nodes: prune replicas stranded on
			// dead nodes so metadata tracks reality.
			if liveReplicas < len(bm.Replicas) {
				kept := bm.Replicas[:0]
				for _, r := range bm.Replicas {
					if s, ok := n.nodes[r]; ok && s.alive {
						kept = append(kept, r)
					}
				}
				bm.Replicas = kept
			}
			continue
		}
		under++
		if p, ok := n.pending[id]; ok {
			src := n.nodes[p.source]
			if src != nil && src.alive && now.Sub(p.issued) < pendingTimeout {
				continue // order in flight
			}
			delete(n.pending, id)
		}
		// Source: the first live replica holder that actually reported
		// the block.
		var source *nodeState
		for _, r := range bm.Replicas {
			if s, ok := n.nodes[r]; ok && s.alive && s.blocks[id] {
				source = s
				break
			}
		}
		if source == nil {
			n.eventf("block %d has no live replica — cannot re-replicate", id)
			continue
		}
		// Destination: next live node (round-robin) without a replica.
		dest := ""
		for i := 0; i < len(live); i++ {
			cand := live[(n.rrNext+i)%len(live)]
			if cand == source.addr || containsAddr(bm.Replicas, cand) {
				continue
			}
			dest = cand
			n.rrNext = (n.rrNext + i + 1) % len(live)
			break
		}
		if dest == "" {
			continue
		}
		n.pending[id] = pendingRepl{source: source.addr, target: dest, issued: now}
		source.cmds = append(source.cmds, ReplicateCmd{ID: id, Target: dest})
		n.eventf("re-replicating block %d: %s -> %s (%d/%d live replicas)",
			id, source.addr, dest, liveReplicas, target)
	}
	n.gaugeUnder = under
}

func containsAddr(addrs []string, addr string) bool {
	for _, a := range addrs {
		if a == addr {
			return true
		}
	}
	return false
}

type nameNodeRPC struct{ n *NameNode }

// register adds or revives the node record for addr. Callers hold n.mu.
func (n *NameNode) register(addr string) *nodeState {
	s, ok := n.nodes[addr]
	if !ok {
		s = &nodeState{addr: addr, id: len(n.order) + 1, blocks: make(map[int64]bool)}
		n.nodes[addr] = s
		n.order = append(n.order, addr)
	}
	if !s.alive {
		s.alive = true
		if ok {
			n.eventf("datanode %s revived", addr)
		} else {
			n.eventf("datanode %s registered (node %d)", addr, s.id)
		}
	}
	s.lastSeen = time.Now()
	return s
}

// RegisterNode signs a datanode on (or revives a restarted one).
func (r *nameNodeRPC) RegisterNode(args *RegisterNodeArgs, reply *RegisterNodeReply) error {
	n := r.n
	n.mu.Lock()
	defer n.mu.Unlock()
	reply.NodeID = n.register(args.Addr).id
	return nil
}

// Heartbeat processes a datanode's liveness signal and block report, and
// returns any queued re-replication or garbage-collection commands.
func (r *nameNodeRPC) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	n := r.n
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ctrHeartbeats++
	s := n.register(args.Addr)
	s.lastSeen = now

	// Reconcile the block report: confirm replicas the metadata does not
	// know about (re-replication targets, restarted disk-backed nodes),
	// and garbage-collect orphans from deleted or never-committed files.
	s.blocks = make(map[int64]bool, len(args.Blocks))
	for _, id := range args.Blocks {
		s.blocks[id] = true
		loc, ok := n.blocks[id]
		if !ok {
			if created, allocated := n.alloc[id]; allocated {
				if now.Sub(created) > n.opts.AllocGrace {
					delete(n.alloc, id)
					reply.Delete = append(reply.Delete, id)
				}
			} else {
				reply.Delete = append(reply.Delete, id)
			}
			continue
		}
		bm := &n.files[loc.file].Blocks[loc.idx]
		if !containsAddr(bm.Replicas, args.Addr) {
			bm.Replicas = append(bm.Replicas, args.Addr)
		}
		if p, ok := n.pending[id]; ok && p.target == args.Addr {
			n.ctrRereplications++
			n.spans = append(n.spans, obs.Span{
				Job: "dfs", Phase: obs.PhaseRereplicate, Task: int(id),
				Worker: s.id, Start: p.issued, Wall: now.Sub(p.issued),
				Records: 1, Bytes: int64(bm.Size),
			})
			n.eventf("block %d re-replicated to %s in %v", id, args.Addr, now.Sub(p.issued).Round(time.Millisecond))
			delete(n.pending, id)
		}
	}

	// Deliver queued re-replication orders, dropping any whose block or
	// target has gone away in the meantime.
	for _, cmd := range s.cmds {
		if _, ok := n.blocks[cmd.ID]; !ok {
			delete(n.pending, cmd.ID)
			continue
		}
		if t, ok := n.nodes[cmd.Target]; !ok || !t.alive {
			delete(n.pending, cmd.ID)
			continue
		}
		reply.Replicate = append(reply.Replicate, cmd)
	}
	s.cmds = nil
	return nil
}

// ReportCorrupt drops a quarantined replica from the metadata so the
// re-replication sweep restores the block from a healthy copy.
func (r *nameNodeRPC) ReportCorrupt(args *ReportCorruptArgs, reply *ReportCorruptReply) error {
	n := r.n
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ctrCorrupt++
	if s, ok := n.nodes[args.Addr]; ok {
		delete(s.blocks, args.ID)
	}
	if loc, ok := n.blocks[args.ID]; ok {
		bm := &n.files[loc.file].Blocks[loc.idx]
		kept := bm.Replicas[:0]
		for _, r := range bm.Replicas {
			if r != args.Addr {
				kept = append(kept, r)
			}
		}
		bm.Replicas = kept
	}
	n.eventf("corrupt replica of block %d quarantined on %s", args.ID, args.Addr)
	return nil
}

// Report assembles the dfsadmin cluster snapshot.
func (r *nameNodeRPC) Report(args *ReportArgs, reply *ReportReply) error {
	n := r.n
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, addr := range n.order {
		s := n.nodes[addr]
		reply.Nodes = append(reply.Nodes, NodeReport{
			Addr:   s.addr,
			Alive:  s.alive,
			Blocks: len(s.blocks),
			AgeMS:  now.Sub(s.lastSeen).Milliseconds(),
		})
	}
	reply.Files = len(n.files)
	reply.Blocks = len(n.blocks)
	reply.UnderReplicated = int(n.gaugeUnder)
	reply.Counters = map[string]int64{
		CtrHeartbeats:            n.ctrHeartbeats,
		CtrRereplications:        n.ctrRereplications,
		CtrBlocksCorrupt:         n.ctrCorrupt,
		CtrNodesDead:             n.ctrDead,
		CtrBlocksUnderReplicated: n.gaugeUnder,
	}
	return nil
}

// Create allocates block ids and replica placements on live datanodes.
func (r *nameNodeRPC) Create(args *CreateArgs, reply *CreateReply) error {
	n := r.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if args.Name == "" {
		return fmt.Errorf("dfs: empty file name")
	}
	live := n.liveAddrs()
	if len(live) == 0 {
		if len(n.nodes) == 0 {
			return fmt.Errorf("dfs: no datanodes registered")
		}
		return fmt.Errorf("dfs: no live datanodes (%d registered, all dead)", len(n.nodes))
	}
	repl := n.opts.Replication
	if repl > len(live) {
		repl = len(live)
	}
	now := time.Now()
	blocks := make([]blockMeta, len(args.BlockSizes))
	for i, size := range args.BlockSizes {
		n.nextBlk++
		replicas := make([]string, repl)
		for j := 0; j < repl; j++ {
			replicas[j] = live[(n.rrNext+j)%len(live)]
		}
		n.rrNext = (n.rrNext + 1) % len(live)
		blocks[i] = blockMeta{ID: n.nextBlk, Size: size, Replicas: replicas}
		n.alloc[n.nextBlk] = now
	}
	reply.Blocks = blocks
	return nil
}

// Commit finalizes a file (overwriting any previous version's metadata;
// the client deletes the old blocks).
func (r *nameNodeRPC) Commit(args *CommitArgs, reply *CommitReply) error {
	n := r.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.files[args.Name]; ok {
		for _, b := range old.Blocks {
			delete(n.blocks, b.ID)
			delete(n.pending, b.ID)
		}
	}
	var size int64
	for _, b := range args.Blocks {
		size += int64(b.Size)
	}
	fm := &fileMeta{Name: args.Name, Size: size, Blocks: args.Blocks}
	n.files[args.Name] = fm
	for i, b := range fm.Blocks {
		n.blocks[b.ID] = blockLoc{file: args.Name, idx: i}
		delete(n.alloc, b.ID)
	}
	return nil
}

// Lookup returns a file's metadata with each block's replicas ordered
// live-first, so clients dial healthy datanodes before dead ones.
func (r *nameNodeRPC) Lookup(args *LookupArgs, reply *LookupReply) error {
	n := r.n
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.files[args.Name]
	if !ok {
		return fmt.Errorf("dfs: %s: no such file", args.Name)
	}
	out := fileMeta{Name: f.Name, Size: f.Size, Blocks: make([]blockMeta, len(f.Blocks))}
	for i, b := range f.Blocks {
		replicas := make([]string, 0, len(b.Replicas))
		for _, addr := range b.Replicas {
			if s, ok := n.nodes[addr]; ok && s.alive {
				replicas = append(replicas, addr)
			}
		}
		for _, addr := range b.Replicas {
			if s, ok := n.nodes[addr]; !ok || !s.alive {
				replicas = append(replicas, addr)
			}
		}
		out.Blocks[i] = blockMeta{ID: b.ID, Size: b.Size, Replicas: replicas}
	}
	reply.File = out
	return nil
}

// List returns names under a prefix.
func (r *nameNodeRPC) List(args *ListArgs, reply *ListReply) error {
	n := r.n
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range n.files {
		if strings.HasPrefix(name, args.Prefix) {
			reply.Names = append(reply.Names, name)
		}
	}
	sort.Strings(reply.Names)
	return nil
}

// Delete drops a file's metadata and returns its blocks so the client can
// garbage-collect replicas.
func (r *nameNodeRPC) Delete(args *DeleteArgs, reply *DeleteReply) error {
	n := r.n
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.files[args.Name]
	if !ok {
		return fmt.Errorf("dfs: %s: no such file", args.Name)
	}
	delete(n.files, args.Name)
	for _, b := range f.Blocks {
		delete(n.blocks, b.ID)
		delete(n.pending, b.ID)
	}
	reply.Blocks = f.Blocks
	return nil
}
