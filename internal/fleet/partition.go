package fleet

import (
	"fmt"
	"sort"

	"repro/internal/lsh"
	"repro/internal/model"
	"repro/internal/serve"
)

// Partition splits a full cluster model into per-shard sub-models routed by
// the consistent-hash ring over LSH bucket keys. Shard s receives every row
// appearing in at least one bucket s owns, plus every peak row (replicated
// so halo/peak-distance fields and the exact-scan fallback work on any
// shard). Sub-model rows keep ascending global-ID order and carry a RowIDs
// section, so a shard's local lowest-row-index NN tie rule picks the same
// winner the full model would.
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

	// Pass 1: index every bucket (the serving engine's own lsh.Index). LSH
	// bucket mass is skewed — cluster cores concentrate in a few huge
	// buckets per layout — so ring placement alone would hand whole
	// clusters to whichever shard their keys hash to. The heavy buckets
	// get explicit balanced placements instead, weighted by a sampled
	// estimate of each bucket's true scan cost and recorded in the
	// manifest for the router.
	n := m.N()
	ix := layouts.BuildIndex(m.Data, n, nil)
	weights := estimateBucketWeights(ix, n, mf.M)
	groups := bucketGroups(m, ix.RowKeys, len(ix.Keys), mf.M)
	mf.Overrides = balanceHeavyBuckets(ix.Keys, weights, groups, ring, shards)
	place, err := mf.Placement()
	if err != nil {
		return nil, nil, err
	}

	// Pass 2: mark which shards need which rows — the owner of any bucket
	// holding the row, plus every shard for peak rows.
	need := make([][]bool, shards)
	for s := range need {
		need[s] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < mf.M; j++ {
			need[place.Owner(ix.Keys[ix.RowKeys[i*mf.M+j]])][i] = true
		}
	}
	for _, p := range m.Peaks {
		for s := range need {
			need[s][int(p)] = true
		}
	}

	subs := make([]*model.Model, shards)
	for s := range subs {
		sub, err := subModel(m, need[s], fmt.Sprintf("%s@shard%d/%d", m.Name, s, shards))
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: partition shard %d: %w", s, err)
		}
		subs[s] = sub
	}
	return subs, mf, nil
}

// Heavy-bucket selection bounds: a bucket is heavy when it alone carries
// more than 1/overrideFraction of one shard's ideal scan weight, and at
// most maxOverridesPerShard × shards of the heaviest qualify, keeping the
// manifest small. Fine-grained bucketings where no single bucket matters
// produce zero overrides and fall back to pure consistent hashing.
const (
	overrideFraction     = 128
	maxOverridesPerShard = 128
)

// Bucket-weight estimation knobs. maxWeightSamples rows are replayed as
// queries (evenly strided, so the sample mirrors the data the way serving
// queries do). scoreUnit is the cost of one exact candidate scoring
// relative to one posting-walk visit (a SWAR membership word): confirming
// and scoring a row costs a key compare plus a full-dimension distance,
// roughly an order of magnitude over streaming one prefilter word.
const (
	maxWeightSamples = 2048
	scoreUnit        = 12.0
)

// estimateBucketWeights estimates each bucket's scan cost under a query
// mix that mirrors the stored data, by replaying a strided sample of the
// rows as queries against the bucket index.
//
// Owning a bucket has two costs per query that probes it, and they scale
// differently. The walk — streaming the posting list through the SWAR
// prefilter — is paid on the bucket's full size by the bucket's owner
// alone. The exact scoring of a candidate, though, is paid once
// fleet-wide by the owner of the candidate's *first* matching layout in
// the engine's rotated scan order. Neither a size² weight nor an
// expected 1/m split over a row's m matching layouts gets that right:
// the rotation start j₀ is a deterministic hash of the query's key
// tuple, so every query sharing a key tuple — an entire cluster core —
// funnels its scoring through the *same* layout's bucket, not 1/m to
// each. The estimator therefore replays each sample through
// serve.ScanRotation and the exact first-match rule, charging one walk
// unit per posting visited and scoreUnit to the precise bucket the
// engine will score the candidate under.
func estimateBucketWeights(ix *lsh.Index, n, m int) []float64 {
	weights := make([]float64, len(ix.Keys))
	step := n / maxWeightSamples
	if step < 1 {
		step = 1
	}
	seen := make([]bool, n)
	var touched []int32
	var qkeys []byte
	for q := 0; q < n; q += step {
		qk := ix.RowKeys[q*m : q*m+m]
		qkeys = qkeys[:0]
		for _, id := range qk {
			qkeys = append(qkeys, ix.Keys[id]...)
		}
		j0 := serve.ScanRotation(qkeys, m)
		for _, id := range qk {
			members := ix.Bucket(id)
			weights[id] += float64(len(members)) // walk: full posting list per probe
			for _, r := range members {
				if !seen[r] {
					seen[r] = true
					touched = append(touched, r)
				}
			}
		}
		for _, r := range touched {
			base := int(r) * m
			for dj := 0; dj < m; dj++ {
				j2 := j0 + dj
				if j2 >= m {
					j2 -= m
				}
				if ix.RowKeys[base+j2] == qk[j2] {
					weights[qk[j2]] += scoreUnit
					break
				}
			}
			seen[r] = false
		}
		touched = touched[:0]
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
// ideal weight, so the greedy placement can always land within a few
// percent of balanced even when one cluster dominates (or there are
// fewer clusters than shards).
const chunkFraction = 5

// balanceHeavyBuckets picks the buckets hot enough to distort shard load
// and greedily re-places them. Placement is fan-out aware: heavy buckets
// are first grouped by their majority cluster label (a core query probes
// one core bucket per layout, all sharing that label, so scattering them
// would make every such query contact every shard), then each group is
// split into chunks no heavier than an ideal shard's weight over
// chunkFraction, and the chunks go heaviest-first onto the shard with
// the least total scan weight so far (ring-owned tail weight included).
// Deterministic given the model — the sampled weights and majority pass
// are deterministic, ordering ties break on bucket key, ties in load go
// to the lowest shard — so re-running the partitioner reproduces
// fleet.json byte for byte. Returns only the placements that differ
// from the ring, keyed in the manifest's text form.
func balanceHeavyBuckets(keys []string, weights []float64, groups []int32, ring *Ring, shards int) map[string]int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	threshold := total / float64(shards) / overrideFraction
	type bucket struct {
		key    string
		weight float64
		group  int32
	}
	var heavy []bucket
	load := make([]float64, shards) // ring-owned weight of the tail
	for id, w := range weights {
		if w > threshold {
			heavy = append(heavy, bucket{keys[id], w, groups[id]})
		} else {
			load[ring.Owner(keys[id])] += w
		}
	}
	sort.Slice(heavy, func(i, j int) bool {
		if heavy[i].weight != heavy[j].weight {
			return heavy[i].weight > heavy[j].weight
		}
		return heavy[i].key < heavy[j].key
	})
	if max := maxOverridesPerShard * shards; len(heavy) > max {
		// The cut buckets stay ring-owned; put their weight back.
		for _, b := range heavy[max:] {
			load[ring.Owner(b.key)] += b.weight
		}
		heavy = heavy[:max]
	}

	// Pack each label group into chunks of bounded weight: within a
	// group, heaviest bucket first, starting a new chunk whenever the
	// cap would be crossed (a single over-cap bucket chunks alone).
	sort.SliceStable(heavy, func(i, j int) bool { return heavy[i].group < heavy[j].group })
	type chunk struct {
		weight  float64
		buckets []bucket
	}
	chunkCap := total / float64(shards) / chunkFraction
	var chunks []chunk
	for i := 0; i < len(heavy); i++ {
		b := heavy[i]
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
	// Compact mirrors slice row-for-row; q8 keeps the full model's
	// per-dimension code parameters, so codes stay valid unchanged.
	if len(m.Data32) == len(m.Data) {
		sub.Data32 = make([]float32, 0, nl*m.Dim)
		for _, gid := range rowIDs {
			i := int(gid)
			sub.Data32 = append(sub.Data32, m.Data32[i*m.Dim:(i+1)*m.Dim]...)
		}
	}
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
