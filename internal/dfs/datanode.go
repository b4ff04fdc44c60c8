package dfs

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// BlockHooks are fault-injection points the chaos harness installs on a
// datanode (via SetHooks). A hook returning an error aborts the RPC; a
// hook may also kill its own node to simulate a crash mid-request.
type BlockHooks struct {
	// BeforeRead runs before a replica is served to a client.
	BeforeRead func(id int64) error
	// BeforeWrite runs before a replica is stored.
	BeforeWrite func(id int64) error
}

// DataNodeOptions configures a datanode. The zero value gives the
// documented defaults.
type DataNodeOptions struct {
	// Dir, when non-empty, stores replicas as files under it (created if
	// missing) so data outlives the process; empty means memory-backed.
	Dir string
	// HeartbeatInterval is the period of the heartbeat + block report sent
	// to the namenode (default 500ms).
	HeartbeatInterval time.Duration
	// Hooks are optional fault-injection points (see BlockHooks).
	Hooks BlockHooks
}

// DataNode stores block replicas — in memory by default, or as files in a
// directory so replicas outlive the process and memory stays bounded —
// serves them over RPC, heartbeats its block report to the namenode, and
// executes re-replication orders piggybacked on heartbeat replies.
type DataNode struct {
	lis      net.Listener
	addr     string
	nameAddr string
	hbEvery  time.Duration

	mu    sync.RWMutex
	store blockStore
	hooks BlockHooks

	connMu sync.Mutex
	conns  map[net.Conn]bool
	nn     *rpc.Client

	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// StartDataNode launches a memory-backed datanode listening on listenAddr
// and registers it with the namenode at nameAddr.
func StartDataNode(nameAddr, listenAddr string) (*DataNode, error) {
	return StartDataNodeOpts(nameAddr, listenAddr, DataNodeOptions{})
}

// StartDataNodeDir launches a disk-backed datanode: replicas are stored as
// files under dir (created if missing).
func StartDataNodeDir(nameAddr, listenAddr, dir string) (*DataNode, error) {
	return StartDataNodeOpts(nameAddr, listenAddr, DataNodeOptions{Dir: dir})
}

// StartDataNodeOpts launches a datanode with explicit options.
func StartDataNodeOpts(nameAddr, listenAddr string, opts DataNodeOptions) (*DataNode, error) {
	var st blockStore = newMemStore()
	if opts.Dir != "" {
		ds, err := newDirStore(opts.Dir)
		if err != nil {
			return nil, err
		}
		st = ds
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	lis, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("dfs: datanode listen: %w", err)
	}
	d := &DataNode{
		lis:      lis,
		addr:     lis.Addr().String(),
		nameAddr: nameAddr,
		hbEvery:  opts.HeartbeatInterval,
		store:    st,
		hooks:    opts.Hooks,
		conns:    make(map[net.Conn]bool),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("DataNode", &dataNodeRPC{d: d}); err != nil {
		lis.Close()
		return nil, err
	}
	go d.acceptLoop(srv)

	client, err := dialRPC(nameAddr)
	if err != nil {
		lis.Close()
		return nil, err
	}
	var reply RegisterNodeReply
	if err := client.Call("NameNode.RegisterNode", &RegisterNodeArgs{Addr: d.addr}, &reply); err != nil {
		client.Close()
		lis.Close()
		return nil, fmt.Errorf("dfs: register datanode: %w", err)
	}
	d.connMu.Lock()
	d.nn = client
	d.connMu.Unlock()
	go d.heartbeatLoop()
	return d, nil
}

// acceptLoop serves RPC connections, tracking them so Close can sever
// in-flight requests (hard-kill semantics for fault injection).
func (d *DataNode) acceptLoop(srv *rpc.Server) {
	for {
		conn, err := d.lis.Accept()
		if err != nil {
			return
		}
		d.connMu.Lock()
		if d.conns == nil { // closed concurrently
			d.connMu.Unlock()
			conn.Close()
			return
		}
		d.conns[conn] = true
		d.connMu.Unlock()
		go func() {
			srv.ServeConn(conn)
			d.connMu.Lock()
			delete(d.conns, conn)
			d.connMu.Unlock()
			conn.Close()
		}()
	}
}

// Addr returns the datanode's dialable address.
func (d *DataNode) Addr() string { return d.addr }

// Close stops the datanode immediately: the listener closes, in-flight
// connections are severed, and heartbeats stop — to the rest of the
// cluster this is indistinguishable from a crash. Safe to call from
// inside a BlockHooks hook (it does not wait for RPCs to drain).
func (d *DataNode) Close() error {
	d.closeOnce.Do(func() {
		close(d.quit)
		d.closeErr = d.lis.Close()
		d.connMu.Lock()
		for conn := range d.conns {
			conn.Close()
		}
		d.conns = nil
		if d.nn != nil {
			d.nn.Close()
			d.nn = nil
		}
		d.connMu.Unlock()
	})
	return d.closeErr
}

// SetHooks installs fault-injection hooks (pass the zero value to clear).
func (d *DataNode) SetHooks(h BlockHooks) {
	d.mu.Lock()
	d.hooks = h
	d.mu.Unlock()
}

// BlockCount reports how many blocks this node holds.
func (d *DataNode) BlockCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n, err := d.store.count()
	if err != nil {
		return -1
	}
	return n
}

// Corrupt flips one bit (chosen by seed) in the stored payload of block
// id without updating its checksum — simulated disk bit rot for tests.
func (d *DataNode) Corrupt(id int64, seed int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.corrupt(id, seed)
}

// namenode returns the cached namenode client, re-dialing if needed.
func (d *DataNode) namenode() (*rpc.Client, error) {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	if d.conns == nil {
		return nil, fmt.Errorf("dfs: datanode closed")
	}
	if d.nn != nil {
		return d.nn, nil
	}
	c, err := dialRPC(d.nameAddr)
	if err != nil {
		return nil, err
	}
	d.nn = c
	return c, nil
}

// dropNamenode discards a failed namenode connection.
func (d *DataNode) dropNamenode() {
	d.connMu.Lock()
	if d.nn != nil {
		d.nn.Close()
		d.nn = nil
	}
	d.connMu.Unlock()
}

// heartbeatLoop sends the periodic heartbeat + block report and executes
// any commands piggybacked on the reply.
func (d *DataNode) heartbeatLoop() {
	defer close(d.done)
	d.heartbeat() // immediate first report (covers restart with a disk store)
	t := time.NewTicker(d.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-t.C:
			d.heartbeat()
		}
	}
}

func (d *DataNode) heartbeat() {
	d.mu.RLock()
	ids, err := d.store.ids()
	d.mu.RUnlock()
	if err != nil {
		return
	}
	nn, err := d.namenode()
	if err != nil {
		return
	}
	args := HeartbeatArgs{Addr: d.addr, Blocks: ids}
	var reply HeartbeatReply
	if err := nn.Call("NameNode.Heartbeat", &args, &reply); err != nil {
		d.dropNamenode()
		return
	}
	for _, cmd := range reply.Replicate {
		d.replicate(cmd)
	}
	if len(reply.Delete) > 0 {
		d.mu.Lock()
		for _, id := range reply.Delete {
			d.store.delete(id)
		}
		d.mu.Unlock()
	}
}

// replicate pushes one local replica to a peer datanode, verifying the
// checksum first: a corrupt copy is quarantined and reported instead of
// propagated.
func (d *DataNode) replicate(cmd ReplicateCmd) {
	d.mu.RLock()
	data, crc, ok, err := d.store.get(cmd.ID)
	d.mu.RUnlock()
	if err != nil || !ok {
		return
	}
	if BlockChecksum(data) != crc {
		d.quarantine(cmd.ID)
		return
	}
	peer, err := dialRPC(cmd.Target)
	if err != nil {
		return
	}
	defer peer.Close()
	var rep WriteBlockReply
	peer.Call("DataNode.WriteBlock", &WriteBlockArgs{ID: cmd.ID, Data: data}, &rep)
	// Success is confirmed by the target's next block report, not here.
}

// quarantine drops a corrupt replica and reports it so the namenode
// re-replicates the block from a healthy copy.
func (d *DataNode) quarantine(id int64) {
	d.mu.Lock()
	d.store.delete(id)
	d.mu.Unlock()
	if nn, err := d.namenode(); err == nil {
		var rep ReportCorruptReply
		if err := nn.Call("NameNode.ReportCorrupt", &ReportCorruptArgs{Addr: d.addr, ID: id}, &rep); err != nil {
			d.dropNamenode()
		}
	}
}

type dataNodeRPC struct{ d *DataNode }

// WriteBlock stores one replica (checksum computed by the store).
func (r *dataNodeRPC) WriteBlock(args *WriteBlockArgs, reply *WriteBlockReply) error {
	d := r.d
	d.mu.RLock()
	hook := d.hooks.BeforeWrite
	d.mu.RUnlock()
	if hook != nil {
		if err := hook(args.ID); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.put(args.ID, args.Data)
}

// ReadBlock serves one replica, verifying its checksum first: a corrupt
// replica is quarantined, reported to the namenode, and the read fails so
// the client fails over to a healthy copy.
func (r *dataNodeRPC) ReadBlock(args *ReadBlockArgs, reply *ReadBlockReply) error {
	d := r.d
	d.mu.RLock()
	hook := d.hooks.BeforeRead
	d.mu.RUnlock()
	if hook != nil {
		if err := hook(args.ID); err != nil {
			return err
		}
	}
	d.mu.RLock()
	data, crc, ok, err := d.store.get(args.ID)
	d.mu.RUnlock()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("dfs: block %d not on this node", args.ID)
	}
	if BlockChecksum(data) != crc {
		d.quarantine(args.ID)
		return fmt.Errorf("dfs: block %d failed checksum on %s (replica quarantined)", args.ID, d.addr)
	}
	reply.Data = data
	reply.Crc = crc
	return nil
}

// DeleteBlocks garbage-collects replicas.
func (r *dataNodeRPC) DeleteBlocks(args *DeleteBlocksArgs, reply *DeleteBlocksReply) error {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	for _, id := range args.IDs {
		if err := r.d.store.delete(id); err != nil {
			return err
		}
	}
	return nil
}

func dialRPC(addr string) (*rpc.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}
