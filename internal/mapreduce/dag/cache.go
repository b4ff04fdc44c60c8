package dag

import (
	"container/list"
	"sync"

	"repro/internal/mapreduce"
)

// cache is the session's byte-bounded node-result store, keyed by node
// fingerprint. Entries are LRU-evicted once the footprint exceeds capBytes;
// an evicted entry is dropped and its node re-runs on the next request.
type cache struct {
	mu       sync.Mutex
	capBytes int64

	curBytes int64
	entries  map[string]*cacheEntry
	lru      *list.List // front = most recently used
}

type cacheEntry struct {
	fp    string
	pairs []mapreduce.Pair
	bytes int64
	elem  *list.Element
}

func newCache(capBytes int64) *cache {
	if capBytes <= 0 {
		return nil
	}
	return &cache{
		capBytes: capBytes,
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
	}
}

// get returns the cached pairs for fp.
func (c *cache) get(fp string) (ps []mapreduce.Pair, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[fp]
	if !found {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.pairs, true
}

// put stores a node result and returns how many entries were evicted to
// make room. Oversized results (bigger than the whole cache) are not
// stored at all.
func (c *cache) put(fp string, ps []mapreduce.Pair) (evicted int64) {
	bytes := mapreduce.PairsBytes(ps)
	if bytes > c.capBytes {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[fp]; exists {
		return 0
	}
	e := &cacheEntry{fp: fp, pairs: ps, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.entries[fp] = e
	c.curBytes += bytes
	// Shed from the cold end; e sits at the front and fits on its own, so
	// the loop ends before reaching it.
	for c.curBytes > c.capBytes {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, old.fp)
		c.curBytes -= old.bytes
		evicted++
	}
	return evicted
}
