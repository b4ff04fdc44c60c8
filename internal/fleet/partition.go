package fleet

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"repro/internal/lsh"
	"repro/internal/model"
	"repro/internal/par"
)

// Partition splits a full cluster model into per-shard sub-models routed by
// LSH bucket key, each bucket placed with its cluster group. Shard s
// receives every row appearing in at least one bucket s owns, plus every
// peak row (replicated so halo/peak-distance fields and the exact-scan
// fallback work on any shard). Sub-model rows keep ascending global-ID
// order and carry a RowIDs section, so a shard's local lowest-row-index NN
// tie rule picks the same winner the full model would.
//
// vnodes is the virtual-node count per ring shard (0 means DefaultVNodes).
// The returned manifest reconstructs the exact routing.
func Partition(m *model.Model, shards, vnodes int) ([]*model.Model, *Manifest, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("fleet: partition: %w", err)
	}
	if len(m.RowIDs) != 0 {
		return nil, nil, fmt.Errorf("fleet: partition: model %q is already a shard sub-model", m.Name)
	}
	mf := &Manifest{
		Name: m.Name, Dim: m.Dim, N: m.N(), Dc: m.Dc, Clusters: m.NumClusters(),
		Seed: m.LSH.Seed, M: m.LSH.M, Pi: m.LSH.Pi, W: m.LSH.W,
		Shards: shards, VNodes: vnodes, KeyFormat: KeyFormat,
	}
	if err := mf.Validate(); err != nil {
		return nil, nil, err
	}
	ring, err := mf.Ring()
	if err != nil {
		return nil, nil, err
	}
	layouts := mf.Layouts()

	// Pass 1: index every bucket (the serving engine's own lsh.Index) and
	// place each one with its cluster group. A row is copied to the owner
	// of each of its M buckets, and the ring would scatter those across
	// shards; LSH bucket mass is skewed too — cluster cores concentrate in
	// a few huge buckets per layout. So every bucket gets an explicit,
	// balanced placement, weighted by a sampled estimate of its scan cost
	// and recorded in the manifest for the router.
	n := m.N()
	ix := layouts.BuildIndex(m.Data, n, runtime.GOMAXPROCS(0))
	weights := estimateBucketWeights(ix, layouts, m.Data, m.Dim)
	groups := bucketGroups(m, ix.RowKeys, ix.Len(), mf.M)
	mf.Overrides = balanceBuckets(ix, weights, groups, ring, shards)
	place, err := mf.Placement()
	if err != nil {
		return nil, nil, err
	}

	// Pass 2: mark which shards need which rows — the owner of any bucket
	// holding the row, plus every shard for peak rows. Owners are resolved
	// once per bucket, not once per (row, layout).
	owners := make([]int, ix.Len())
	for id := range owners {
		owners[id] = place.Owner(string(ix.Key(int32(id))))
	}
	need := make([][]bool, shards)
	for s := range need {
		need[s] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for _, id := range ix.RowKeys[i*mf.M:][:mf.M] {
			need[owners[id]][i] = true
		}
	}
	for _, p := range m.Peaks {
		for s := range need {
			need[s][int(p)] = true
		}
	}

	// The sub-models are copied on GOMAXPROCS goroutines, a chunk of
	// shards each; the lowest failing shard's error is the one reported.
	subs, errs := make([]*model.Model, shards), make([]error, shards)
	par.For(shards, runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			subs[s], errs[s] = subModel(m, need[s], fmt.Sprintf("%s@shard%d/%d", m.Name, s, shards))
		}
	})
	for s, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: partition shard %d: %w", s, err)
		}
	}
	return subs, mf, nil
}

// Bucket-weight estimation knobs. samples = min(n, maxWeightSamples) rows
// are replayed as queries, sample k being row ⌊k·n / samples⌋ (evenly
// spread, so the sample mirrors the data the way serving queries do):
// 2 048 of 200 000, and every row of a model no larger. scoreUnit is the
// cost of one exact candidate scoring relative to one unit of a bucket's
// size, the walk term below: scoring a row adds a full-dimension distance,
// roughly an order of magnitude over testing a row's bucket IDs.
const (
	maxWeightSamples = 2048
	scoreUnit        = 12.0
)

// estimateBucketWeights estimates each bucket's scan cost under a query
// mix that mirrors the stored data, by replaying an evenly spread sample of
// the rows as queries against the bucket index.
//
// Owning a bucket has two costs per query that probes it, and they scale
// differently. The walk — the owner's box-tree walk, whose leaf filter
// tests rows' bucket IDs (serve's bucketFilter) — is paid by the bucket's
// owner alone. It is charged as the bucket's size, a proxy for the rows the
// walk tests, kept because placements and the fleet / route golden lines
// are pinned to it: deriving the term from the walk's filter tests moves
// placement (ROADMAP item 7). The exact scoring of a candidate, though, is
// paid at most once fleet-wide, by the owner of the candidate's *first*
// matching layout in the engine's one cyclic order from the query's
// certifying layout. Neither a size² weight nor an expected 1/m split over
// a row's m matching layouts gets that right: the certifying layout's
// bucket keeps every candidate it holds, so the queries of a cluster core
// funnel their scoring through the few buckets their certifying layouts
// name, not 1/m to each. The estimator therefore hashes each sample, takes its certifying layout
// (lsh.Layouts.GuaranteeRadius) as j₀ and walks the sample's M buckets once
// in the cyclic order from j₀, charging each its size plus scoreUnit for
// every row no earlier bucket of that order held: the exact first-match
// rule.
//
// Rows that share all M bucket IDs — a cell — are held by the same buckets,
// so the first-match rule cannot tell them apart: the walk visits each
// bucket's distinct cells (bucketCells), sums their rows into the bucket's
// size and charges scoreUnit × the cell's rows for a fresh one, the same
// whole numbers a walk over the bucket's rows charges, from a seventh of
// the visits on BenchmarkPartition's 200 000 rows (33 646 cells).
//
// The sample is cut into GOMAXPROCS chunks (par.For), each with its own
// weights, summed in chunk order at the end. Every charge is a whole
// number far below 2⁵³, so the sums — and the overrides built on them —
// are exact in any grouping and do not depend on the core count.
func estimateBucketWeights(ix *lsh.Index, layouts *lsh.Layouts, data []float64, dim int) []float64 {
	n := len(data) / dim
	samples := min(n, maxWeightSamples)
	cells := bucketCells(ix.RowKeys, ix.Len(), layouts.M())
	parts := make([][]float64, par.Chunks(samples, runtime.GOMAXPROCS(0)))
	par.For(samples, len(parts), func(c, lo, hi int) {
		parts[c] = replaySamples(ix, cells, layouts, data, dim, lo, hi, samples)
	})
	weights := parts[0]
	for _, p := range parts[1:] {
		for id, v := range p {
			weights[id] += v
		}
	}
	return weights
}

// cellIndex lists every bucket's cells: bucket id's are
// cells[offsets[id]:offsets[id+1]], and cell c holds rows[c] rows.
type cellIndex struct {
	rows    []int
	offsets []int
	cells   []int32
}

// bucketCells groups the rows of an index by their M-tuple of bucket IDs
// (rowKeys, M = m per row) into cells, numbered in first-seen row order,
// and lists each of the nbuckets buckets' cells in ascending cell order.
// The cells are found through an open-addressing table of cell numbers
// keyed by a hash of the tuple, each slot checked against its cell's first
// row, at about half the time of a map keyed by the tuple's bytes.
func bucketCells(rowKeys []int32, nbuckets, m int) cellIndex {
	var ci cellIndex
	n := len(rowKeys) / m
	table := make([]int32, 1<<bits.Len(uint(2*n))) // cell + 1; 0 is a free slot
	mask := uint64(len(table) - 1)
	var first []int32 // each cell's first row
	for i := range n {
		tuple := rowKeys[i*m:][:m]
		h := uint64(0)
		for _, id := range tuple {
			h = (h + uint64(uint32(id))) * 0x9e3779b97f4a7c15
		}
		for s := h >> 32 & mask; ; s = (s + 1) & mask {
			c := table[s] - 1
			if c < 0 {
				table[s] = int32(len(first)) + 1
				first = append(first, int32(i))
				ci.rows = append(ci.rows, 1)
				break
			}
			if slices.Equal(rowKeys[int(first[c])*m:][:m], tuple) {
				ci.rows[c]++
				break
			}
		}
	}
	ci.offsets = make([]int, nbuckets+1)
	for _, r := range first {
		for _, id := range rowKeys[int(r)*m:][:m] {
			ci.offsets[id+1]++
		}
	}
	for id := range nbuckets {
		ci.offsets[id+1] += ci.offsets[id]
	}
	next := slices.Clone(ci.offsets[:nbuckets])
	ci.cells = make([]int32, len(first)*m)
	for c, r := range first {
		for _, id := range rowKeys[int(r)*m:][:m] {
			ci.cells[next[id]] = int32(c)
			next[id]++
		}
	}
	return ci
}

// replaySamples charges the samples lo ≤ k < hi — rows ⌊k·n / samples⌋ —
// to a fresh weight per bucket (estimateBucketWeights has the rule).
// seen[c] == k+1 marks cell c as held by an earlier bucket of sample k's
// rotation, so the marks clear themselves from one sample to the next.
func replaySamples(ix *lsh.Index, ci cellIndex, layouts *lsh.Layouts, data []float64, dim, lo, hi, samples int) []float64 {
	m, n := layouts.M(), len(data)/dim
	weights := make([]float64, ix.Len())
	seen := make([]int32, len(ci.rows))
	var kb lsh.KeyBuf
	for k := lo; k < hi; k++ {
		q, mark := k*n/samples, int32(k+1)
		qk := ix.RowKeys[q*m : q*m+m]
		layouts.Hash(&kb, data[q*dim:][:dim])
		_, j := layouts.GuaranteeRadius(&kb)
		for range m {
			id := qk[j]
			size, fresh := 0, 0
			for _, c := range ci.cells[ci.offsets[id]:ci.offsets[id+1]] {
				size += ci.rows[c]
				if seen[c] != mark {
					seen[c] = mark
					fresh += ci.rows[c]
				}
			}
			weights[id] += float64(size) + scoreUnit*float64(fresh)
			if j++; j == m {
				j = 0
			}
		}
	}
	return weights
}

// bucketGroups returns each bucket's placement group: the (approximate)
// majority cluster label among its member rows, found with one
// Boyer–Moore majority pass. A cluster core's buckets — one per layout —
// all carry that cluster's label, so grouping by it lets the balancer
// co-locate the buckets a core query probes together. Deterministic:
// the pass follows (row, layout) order.
func bucketGroups(m *model.Model, rowKeys []int32, nbuckets, lm int) []int32 {
	cand := make([]int32, nbuckets)
	cnt := make([]int32, nbuckets)
	n := m.N()
	for i := 0; i < n; i++ {
		lbl := m.Labels[i]
		for j := 0; j < lm; j++ {
			id := rowKeys[i*lm+j]
			switch {
			case cnt[id] == 0:
				cand[id], cnt[id] = lbl, 1
			case cand[id] == lbl:
				cnt[id]++
			default:
				cnt[id]--
			}
		}
	}
	return cand
}

// chunkFraction caps a placement chunk at 1/chunkFraction of one shard's
// ideal weight: half a shard, so a cluster group lands on one or two
// shards while the greedy placement can still even out the load when one
// cluster dominates (or there are fewer clusters than shards).
const chunkFraction = 2

// balanceBuckets places every bucket of the index. Placement is fan-out
// aware: buckets are grouped by their majority cluster label (a query
// probes one bucket per layout, and near a cluster they all share its
// label, so scattering them would make such a query — and every row's
// copies — reach every shard), each group is split into chunks no heavier
// than an ideal shard's weight over chunkFraction, and the chunks go
// heaviest-first onto the shard with the least total scan weight so far.
// Deterministic given the model — the sampled weights and majority pass
// are deterministic, ordering ties break on bucket key, ties in load go
// to the lowest shard — so re-running the partitioner reproduces
// fleet.json byte for byte. Returns only the placements that differ
// from the ring, keyed in the manifest's text form; the ring owns only
// keys the index never held.
func balanceBuckets(ix *lsh.Index, weights []float64, groups []int32, ring *Ring, shards int) map[string]int {
	type bucket struct {
		key    string
		weight float64
		group  int32
	}
	buckets := make([]bucket, len(weights))
	total := 0.0
	for id, w := range weights {
		buckets[id] = bucket{string(ix.Key(int32(id))), w, groups[id]}
		total += w
	}
	sort.Slice(buckets, func(i, j int) bool {
		a, b := buckets[i], buckets[j]
		if a.group != b.group {
			return a.group < b.group
		}
		if a.weight != b.weight {
			return a.weight > b.weight
		}
		return a.key < b.key
	})

	// Pack each label group into chunks of bounded weight: within a
	// group, heaviest bucket first, starting a new chunk whenever the
	// cap would be crossed (a single over-cap bucket chunks alone).
	type chunk struct {
		weight  float64
		buckets []bucket
	}
	chunkCap := total / float64(shards) / chunkFraction
	var chunks []chunk
	for _, b := range buckets {
		if len(chunks) == 0 || chunks[len(chunks)-1].buckets[0].group != b.group ||
			chunks[len(chunks)-1].weight+b.weight > chunkCap {
			chunks = append(chunks, chunk{})
		}
		c := &chunks[len(chunks)-1]
		c.weight += b.weight
		c.buckets = append(c.buckets, b)
	}
	sort.SliceStable(chunks, func(i, j int) bool {
		if chunks[i].weight != chunks[j].weight {
			return chunks[i].weight > chunks[j].weight
		}
		return chunks[i].buckets[0].key < chunks[j].buckets[0].key
	})

	overrides := make(map[string]int)
	load := make([]float64, shards)
	for _, c := range chunks {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += c.weight
		for _, b := range c.buckets {
			if best != ring.Owner(b.key) {
				overrides[lsh.KeyString(b.key)] = best
			}
		}
	}
	if len(overrides) == 0 {
		return nil
	}
	return overrides
}

// subModel extracts the rows marked in keep (ascending global order) into a
// standalone sub-model with a RowIDs mapping and locally re-indexed peaks.
func subModel(m *model.Model, keep []bool, name string) (*model.Model, error) {
	rowIDs := make([]int32, 0, len(keep))
	for i, k := range keep {
		if k {
			rowIDs = append(rowIDs, int32(i))
		}
	}
	nl := len(rowIDs)
	sub := &model.Model{
		Name: name, Dim: m.Dim, Dc: m.Dc, LSH: m.LSH,
		Data:   make([]float64, 0, nl*m.Dim),
		Rho:    make([]float64, 0, nl),
		Labels: make([]int32, 0, nl),
		// Cluster space replicates verbatim: labels index the same peaks,
		// and the border densities are global per-cluster facts.
		Peaks:  make([]int32, len(m.Peaks)),
		Border: append([]float64(nil), m.Border...),
		RowIDs: rowIDs,
	}
	for _, gid := range rowIDs {
		i := int(gid)
		sub.Data = append(sub.Data, m.Data[i*m.Dim:(i+1)*m.Dim]...)
		sub.Rho = append(sub.Rho, m.Rho[i])
		sub.Labels = append(sub.Labels, m.Labels[i])
	}
	// The q8 codes slice row-for-row and keep the full model's
	// per-dimension code parameters, so they stay valid unchanged.
	if len(m.Q8Codes) == len(m.Data) {
		sub.Q8Codes = make([]uint8, 0, nl*m.Dim)
		for _, gid := range rowIDs {
			i := int(gid)
			sub.Q8Codes = append(sub.Q8Codes, m.Q8Codes[i*m.Dim:(i+1)*m.Dim]...)
		}
		sub.Q8Min = append([]float64(nil), m.Q8Min...)
		sub.Q8Scale = append([]float64(nil), m.Q8Scale...)
	}
	// Peaks are global row IDs in the source; re-index to local rows.
	for c, p := range m.Peaks {
		j := sort.Search(len(rowIDs), func(j int) bool { return rowIDs[j] >= p })
		if j == len(rowIDs) || rowIDs[j] != p {
			return nil, fmt.Errorf("peak row %d missing from sub-model", p)
		}
		sub.Peaks[c] = int32(j)
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return sub, nil
}
