// Package fleet shards the serving layer: a partitioner that splits a
// cluster model into per-shard sub-models by LSH bucket key — every indexed
// bucket placed with its cluster group by sampled scan cost, consistent
// hashing for keys created later — and a router that scatter-gathers
// queries to only the shards owning their buckets, merging answers
// bit-identically to a single server.
//
// The layout follows the layered-LSH observation (Bahmani, Goel & Shinde;
// see PAPERS.md): a query needs exactly the M buckets its own keys name, so
// routing by bucket key bounds fan-out at M shards — and in practice far
// fewer, because nearby layouts collide — instead of a broadcast. Every
// engine orders a query's buckets cyclically from its certifying layout,
// and a row belongs to the owner of its first matching layout in that
// order (see serve.Engine's sweep): each row is evaluated at most once
// fleet-wide, the winner by its owner, while hot buckets spread across
// every layout's owner instead of piling onto layout 0's.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard when a Manifest leaves
// it zero. Arc-length imbalance shrinks as 1/sqrt(vnodes); 1024 keeps each
// shard's share of the key space within a few percent of even, and the ring
// stays small enough (shards x 1024 points) that construction and binary-
// search lookups are negligible.
const DefaultVNodes = 1024

// fnv64a hashes s with 64-bit FNV-1a and finalizes with the SplitMix64
// scramble. Raw FNV-1a disperses short, similar strings (bucket keys,
// "shard-s#v" vnode labels) almost entirely in its LOW bits, but ring
// placement orders by the full 64-bit value, where the high bits dominate —
// without the finalizer a 2-shard ring splits the key space ~91/9. Inlined
// (rather than hash/fnv) to keep ring lookups allocation-free on the
// router's hot path.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Ring is a consistent-hash ring assigning LSH bucket-key strings to shards
// through VNodes virtual points per shard. Construction is deterministic in
// (shards, vnodes), so the partitioner and every router independently build
// the same assignment from the manifest alone.
type Ring struct {
	hashes []uint64 // sorted ring positions
	owner  []int32  // owner[i] = shard of hashes[i]
	shards int
}

// NewRing builds the ring for a shard count with vnodes virtual points per
// shard (0 means DefaultVNodes).
func NewRing(shards, vnodes int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fleet: ring needs at least 1 shard, got %d", shards)
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("fleet: ring needs at least 1 vnode per shard, got %d", vnodes)
	}
	r := &Ring{
		hashes: make([]uint64, 0, shards*vnodes),
		owner:  make([]int32, 0, shards*vnodes),
		shards: shards,
	}
	type pt struct {
		h     uint64
		shard int32
	}
	pts := make([]pt, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := fnv64a("shard-" + strconv.Itoa(s) + "#" + strconv.Itoa(v))
			pts = append(pts, pt{h, int32(s)})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		// Identical positions (vanishingly rare with 64-bit hashes) tie
		// toward the lower shard so the order stays deterministic.
		return pts[i].shard < pts[j].shard
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owner = append(r.owner, p.shard)
	}
	return r, nil
}

// Owner returns the shard owning a bucket key: the first virtual point at
// or clockwise of the key's hash.
func (r *Ring) Owner(key string) int {
	h := fnv64a(key)
	// First ring position >= h, wrapping to 0.
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.hashes) {
		lo = 0
	}
	return int(r.owner[lo])
}
