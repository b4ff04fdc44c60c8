package dfs

import (
	"fmt"
	"net/rpc"
	"sync"
	"time"
)

// Client implements FileSystem against a NameNode/DataNode cluster. It is
// safe for concurrent use; datanode connections are cached and re-dialed
// on failure.
type Client struct {
	// BlockSize is the split size for Put (default 1 MiB; tests shrink it
	// to force multi-block files).
	BlockSize int

	nameAddr string

	mu    sync.Mutex
	name  *rpc.Client
	nodes map[string]*rpc.Client
}

// Get re-Lookups a file and retries up to readRetries times, readRetryDelay
// apart, when a block is unreadable on every known replica — riding out the
// window where re-replication is restoring a copy.
const (
	readRetries    = 2
	readRetryDelay = 100 * time.Millisecond
)

// NewClient connects to the namenode at addr.
func NewClient(addr string) (*Client, error) {
	name, err := dialRPC(addr)
	if err != nil {
		return nil, fmt.Errorf("dfs: dial namenode: %w", err)
	}
	return &Client{
		BlockSize: 1 << 20,
		nameAddr:  addr,
		name:      name,
		nodes:     make(map[string]*rpc.Client),
	}, nil
}

// Close releases all connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.Close()
	}
	c.nodes = map[string]*rpc.Client{}
	return c.name.Close()
}

func (c *Client) node(addr string) (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[addr]; ok {
		return n, nil
	}
	n, err := dialRPC(addr)
	if err != nil {
		return nil, err
	}
	c.nodes[addr] = n
	return n, nil
}

func (c *Client) dropNode(addr string) {
	c.mu.Lock()
	if n, ok := c.nodes[addr]; ok {
		n.Close()
		delete(c.nodes, addr)
	}
	c.mu.Unlock()
}

func (c *Client) callName(method string, args, reply interface{}) error {
	c.mu.Lock()
	name := c.name
	c.mu.Unlock()
	return name.Call(method, args, reply)
}

// Put implements FileSystem: split into blocks, ask the namenode for
// placements, write the replicas, then commit. A replica write that fails
// is tolerated as long as at least one replica of each block lands — the
// file commits with the replicas that succeeded and the namenode's
// re-replication loop restores the target count. A previous version's
// blocks are garbage-collected after commit.
func (c *Client) Put(name string, data []byte) error {
	var oldBlocks []blockMeta
	var lookup LookupReply
	if err := c.callName("NameNode.Lookup", &LookupArgs{Name: name}, &lookup); err == nil {
		oldBlocks = lookup.File.Blocks
	}
	bs := c.BlockSize
	if bs <= 0 {
		bs = 1 << 20
	}
	var sizes []int
	for off := 0; ; off += bs {
		remaining := len(data) - off
		if remaining <= 0 {
			if len(sizes) == 0 {
				sizes = []int{0} // empty file still gets one block
			}
			break
		}
		if remaining > bs {
			remaining = bs
		}
		sizes = append(sizes, remaining)
	}
	var created CreateReply
	if err := c.callName("NameNode.Create", &CreateArgs{Name: name, BlockSizes: sizes}, &created); err != nil {
		return err
	}
	off := 0
	commit := make([]blockMeta, len(created.Blocks))
	for i, blk := range created.Blocks {
		chunk := data[off : off+blk.Size]
		off += blk.Size
		var written []string
		var lastErr error
		for _, replica := range blk.Replicas {
			n, err := c.node(replica)
			if err != nil {
				lastErr = err
				continue
			}
			var rep WriteBlockReply
			if err := n.Call("DataNode.WriteBlock", &WriteBlockArgs{ID: blk.ID, Data: chunk}, &rep); err != nil {
				c.dropNode(replica)
				lastErr = err
				continue
			}
			written = append(written, replica)
		}
		if len(written) == 0 {
			return fmt.Errorf("dfs: write block %d: no replica written (%d targets): %w",
				blk.ID, len(blk.Replicas), lastErr)
		}
		commit[i] = blockMeta{ID: blk.ID, Size: blk.Size, Replicas: written}
	}
	var committed CommitReply
	if err := c.callName("NameNode.Commit", &CommitArgs{Name: name, Blocks: commit}, &committed); err != nil {
		return err
	}
	c.gcBlocks(oldBlocks)
	return nil
}

// Get implements FileSystem: read each block from the first replica that
// serves it with a valid checksum. If a block is unreadable on every
// known replica (e.g. its last holder just died), the whole read is
// retried after a fresh Lookup up to readRetries times, riding out
// re-replication restoring a copy elsewhere.
func (c *Client) Get(name string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= readRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(readRetryDelay)
		}
		var lookup LookupReply
		if err := c.callName("NameNode.Lookup", &LookupArgs{Name: name}, &lookup); err != nil {
			return nil, err
		}
		data := make([]byte, 0, lookup.File.Size)
		ok := true
		for _, blk := range lookup.File.Blocks {
			chunk, err := c.readBlock(blk)
			if err != nil {
				lastErr = err
				ok = false
				break
			}
			data = append(data, chunk...)
		}
		if ok {
			return data, nil
		}
	}
	return nil, lastErr
}

func (c *Client) readBlock(blk blockMeta) ([]byte, error) {
	var lastErr error
	for _, replica := range blk.Replicas {
		n, err := c.node(replica)
		if err != nil {
			lastErr = err
			continue
		}
		var rep ReadBlockReply
		if err := n.Call("DataNode.ReadBlock", &ReadBlockArgs{ID: blk.ID}, &rep); err != nil {
			c.dropNode(replica)
			lastErr = err
			continue
		}
		// End-to-end verification: the datanode already checked the
		// stored checksum, this guards the wire.
		if BlockChecksum(rep.Data) != rep.Crc {
			lastErr = fmt.Errorf("dfs: block %d from %s corrupted in transit", blk.ID, replica)
			continue
		}
		return rep.Data, nil
	}
	return nil, fmt.Errorf("dfs: block %d unreadable on all %d replicas: %w",
		blk.ID, len(blk.Replicas), lastErr)
}

// BlockLocation describes one block of a file and its current replicas,
// for operator tooling and fault-injection tests.
type BlockLocation struct {
	ID       int64
	Size     int
	Replicas []string
}

// BlockLocations returns the block layout of a file (replicas ordered
// live-first, as in Lookup).
func (c *Client) BlockLocations(name string) ([]BlockLocation, error) {
	var lookup LookupReply
	if err := c.callName("NameNode.Lookup", &LookupArgs{Name: name}, &lookup); err != nil {
		return nil, err
	}
	out := make([]BlockLocation, len(lookup.File.Blocks))
	for i, b := range lookup.File.Blocks {
		out[i] = BlockLocation{ID: b.ID, Size: b.Size, Replicas: append([]string(nil), b.Replicas...)}
	}
	return out, nil
}

// Report fetches the namenode's cluster snapshot (node liveness, block
// totals, replication health, counters) — the dfsadmin view.
func (c *Client) Report() (ReportReply, error) {
	var reply ReportReply
	err := c.callName("NameNode.Report", &ReportArgs{}, &reply)
	return reply, err
}

// List implements FileSystem.
func (c *Client) List(prefix string) ([]string, error) {
	var reply ListReply
	if err := c.callName("NameNode.List", &ListArgs{Prefix: prefix}, &reply); err != nil {
		return nil, err
	}
	return reply.Names, nil
}

// Delete implements FileSystem.
func (c *Client) Delete(name string) error {
	var reply DeleteReply
	if err := c.callName("NameNode.Delete", &DeleteArgs{Name: name}, &reply); err != nil {
		return err
	}
	c.gcBlocks(reply.Blocks)
	return nil
}

// Stat implements FileSystem.
func (c *Client) Stat(name string) (FileInfo, error) {
	var lookup LookupReply
	if err := c.callName("NameNode.Lookup", &LookupArgs{Name: name}, &lookup); err != nil {
		return FileInfo{}, err
	}
	return FileInfo{
		Name:   lookup.File.Name,
		Size:   lookup.File.Size,
		Blocks: len(lookup.File.Blocks),
	}, nil
}

// gcBlocks best-effort deletes replicas of obsolete blocks.
func (c *Client) gcBlocks(blocks []blockMeta) {
	byNode := make(map[string][]int64)
	for _, b := range blocks {
		for _, r := range b.Replicas {
			byNode[r] = append(byNode[r], b.ID)
		}
	}
	for addr, ids := range byNode {
		n, err := c.node(addr)
		if err != nil {
			continue
		}
		var rep DeleteBlocksReply
		n.Call("DataNode.DeleteBlocks", &DeleteBlocksArgs{IDs: ids}, &rep)
	}
}

var _ FileSystem = (*Client)(nil)
var _ FileSystem = (*MemFS)(nil)
