// Package serve is the online cluster-serving subsystem: it answers "which
// cluster does this point belong to?" against a frozen model artifact
// (internal/model) without rerunning any MapReduce job.
//
// The engine reuses the training run's LSH machinery as an approximate
// nearest-neighbor index: it regenerates the M hash layouts from the
// model's parameters, buckets every stored point under each layout, and
// answers a query by probing the query's M bucket keys and scanning only
// the candidate union with the dense NN kernels — the same
// locality-preserving partitions that made ρ̂/δ̂ accurate make the nearest
// labeled point overwhelmingly likely to share a bucket with the query.
// When every probe comes up empty (a query far from all training data) the
// engine falls back to an exact full scan, so an answer is always returned
// and is always the label of some stored point.
//
// Scans run at a configurable precision (serve.scan.precision): f64 streams
// the float64 block directly; f32 and q8 stream a compact mirror (half or
// an eighth of the bytes), collect a provably sufficient shortlist, and
// re-rank it exactly in float64 (internal/kernels compact scan path), so
// labels, NN indices, distances, and the tie rule are bit-identical across
// precisions. Micro-batches additionally run their exact scans through the
// multi-query NNBatch kernels: one pass over each row tile serves the whole
// batch.
//
// The HTTP server in server.go fronts the engine with micro-batching of
// concurrent requests, a bounded admission queue with load shedding,
// latency histograms, health/stats endpoints, hot model reload, and
// graceful drain — see DESIGN.md "Online serving".
package serve

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/model"
	"repro/internal/points"
)

// Assignment is the answer for one query point.
type Assignment struct {
	// Cluster is the assigned cluster (index into the model's peaks).
	Cluster int32 `json:"cluster"`
	// Halo reports whether the query lands in the cluster's halo (its
	// nearest stored point sits below the cluster's border density).
	Halo bool `json:"halo"`
	// Nearest is the stored point ID whose label the query inherited.
	Nearest int32 `json:"nearest"`
	// Dist is the Euclidean distance to that nearest stored point.
	Dist float64 `json:"dist"`
	// PeakDist is the Euclidean distance to the assigned cluster's peak.
	PeakDist float64 `json:"peak_dist"`
	// Exact reports that the exact-scan fallback answered (no LSH bucket
	// held a candidate, or the engine runs without an index).
	Exact bool `json:"exact"`
	// Dist2 is the squared distance to the nearest stored point — the
	// fleet router's merge key (comparing on Dist would let two distinct
	// squared distances collide after rounding). Never serialized on the
	// public /assign response; the shard-internal /fleet/assign wire
	// carries it explicitly.
	Dist2 float64 `json:"-"`
}

// Precision selects the scan representation of the serving engine.
type Precision uint8

const (
	// PrecF64 scans the float64 block directly (the exact baseline).
	PrecF64 Precision = iota
	// PrecF32 scans a float32 mirror and re-ranks the shortlist exactly.
	PrecF32
	// PrecQ8 scans 8-bit quantized codes via a per-query lookup table and
	// re-ranks the shortlist exactly.
	PrecQ8
)

// ParsePrecision parses a serve.scan.precision value ("" means f64).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", kernels.ScanF64:
		return PrecF64, nil
	case kernels.ScanF32:
		return PrecF32, nil
	case kernels.ScanQ8:
		return PrecQ8, nil
	}
	return PrecF64, fmt.Errorf("serve: unknown scan precision %q (want f64, f32, or q8)", s)
}

// String returns the knob spelling of p.
func (p Precision) String() string {
	switch p {
	case PrecF32:
		return kernels.ScanF32
	case PrecQ8:
		return kernels.ScanQ8
	}
	return kernels.ScanF64
}

// ScanStats aggregates the scan work of one AssignBatch call.
type ScanStats struct {
	// Scanned counts stored rows whose (compact or exact) distance to a
	// query was evaluated.
	Scanned int64
	// Rerank counts shortlist rows re-ranked in exact float64 after a
	// compact scan (0 at PrecF64).
	Rerank int64
	// RerankQueries counts queries whose nearest neighbor came out of a
	// compact scan + exact re-rank (0 at PrecF64).
	RerankQueries int64
	// ExactQueries counts queries answered by the exact full-scan path.
	ExactQueries int64
}

// Engine answers queries against one immutable model. It is safe for
// concurrent use; the server swaps the whole engine on hot reload.
type Engine struct {
	m       *model.Model
	layouts *lsh.Layouts
	// ix is the bucket index of the stored points: every distinct LSH key
	// interned to a bucket ID, each bucket's rows one ascending slice of a
	// single CSR postings block. ix.RowKeys — each row's bucket ID under
	// every layout, row-major n×M — is kept in fleet mode only (a sub-model
	// with RowIDs). It is what makes cross-shard candidate dedup exact: when
	// a masked query asks this shard to scan layout j, a row already
	// matching the query under a cyclically-earlier layout is skipped here,
	// because the shard owning that layout scans it — every global candidate
	// is scanned exactly once fleet-wide.
	ix *lsh.Index
	// bucketSigs mirrors ix.Rows posting for posting (same offsets) with a
	// signature word per row: a 6-bit hash of the row's bucket ID under each
	// layout, packed into one word (built in fleet mode when M <= 10 fields
	// fit 64 bits). One XOR + SWAR zero-field test against the query's
	// signature proves "no earlier layout matches" for the common
	// non-overlapping row without touching RowKeys; only flagged rows (true
	// overlaps plus ~2% hash aliases) run the exact compare loop. The
	// signature is shard-local — it guards a local short-cut, never the
	// cross-shard decision itself. It is stored per posting rather than per
	// row so the masked scan's SWAR probes stream through one contiguous run
	// per bucket walk: bucket rows are sparse in the row space, so a per-row
	// array touches one useful word per cache line, and several engines
	// co-resident on one machine (a benched fleet) turn that into a miss per
	// probe. Costs one extra word per posting (n × M × 8 bytes).
	bucketSigs []uint64
	sigLows    uint64 // 0b000001 in every 6-bit field
	sigHighs   uint64 // 0b100000 in every 6-bit field

	// prec is the effective scan precision: the requested one, or PrecF64
	// when the model data cannot support the compact representation (e.g.
	// unquantizable coordinates).
	prec   Precision
	data32 []float32       // float32 mirror (PrecF32)
	maxAbs float64         // largest |coordinate| of the model data
	q8     []uint8         // quantized codes (PrecQ8)
	q8par  points.Q8Params // their per-dimension affine parameters
	q8bnd  kernels.Bounds  // query-independent q8 scan bounds

	// scratch pools per-query candidate state sized to this model;
	// batches pools per-batch scan state.
	scratch sync.Pool
	batches sync.Pool
}

// scratch is the reusable per-query candidate-dedup and compact-scan state.
type scratch struct {
	stamp []int32 // per-row epoch marks
	epoch int32
	cand  []int32
	kb    lsh.KeyBuf
	qids  []int32 // per-layout bucket IDs of the query (fleet mode)
	q32   []float32
	sl    kernels.Shortlist
	lut   kernels.Q8LUT
}

// batchScratch is the reusable per-batch exact-scan state.
type batchScratch struct {
	pending []int32 // query indices still needing the exact scan
	flat    []float64
	flat32  []float32
	best    []int32
	best2   []float64
	sls     []kernels.Shortlist
	luts    []kernels.Q8LUT
}

// NewEngine indexes a model for serving at the requested scan precision.
// With LSH parameters present the index holds M buckets per stored point; a
// model exported without LSH (M == 0) serves through exact scans only.
// When the model cannot support the requested compact representation the
// engine silently serves at f64 — check Precision() for the effective
// setting. Results are identical either way.
func NewEngine(m *model.Model, prec Precision) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{m: m, layouts: m.Layouts()}
	e.maxAbs = maxAbsOf(m.Data)
	e.prec = e.setupCompact(prec)
	n := m.N()
	e.scratch.New = func() any { return &scratch{stamp: make([]int32, n)} }
	e.batches.New = func() any { return new(batchScratch) }
	if e.layouts == nil {
		return e, nil
	}
	e.ix = e.layouts.BuildIndex(m.Data, n)
	if len(m.RowIDs) == 0 {
		e.ix.RowKeys = nil // only the fleet's masked scan reads them
		return e, nil
	}
	if nl := e.layouts.M(); nl <= 10 {
		for f := 0; f < nl; f++ {
			e.sigLows |= 1 << uint(6*f)
		}
		e.sigHighs = e.sigLows << 5
		rowSigs := make([]uint64, n)
		for i := range rowSigs {
			for j, id := range e.ix.RowKeys[i*nl:][:nl] {
				rowSigs[i] |= sigField(id) << uint(6*j)
			}
		}
		e.bucketSigs = make([]uint64, len(e.ix.Rows))
		for p, r := range e.ix.Rows {
			e.bucketSigs[p] = rowSigs[r]
		}
	}
	return e, nil
}

// sigField hashes an interned key ID to a nonzero 6-bit signature field;
// zero is reserved for "query has no such key here", which must never
// compare equal to a stored row's field.
func sigField(id int32) uint64 {
	return 1 + mix64(uint64(id))%63
}

// setupCompact derives (or adopts from the model artifact) the compact
// representation for the requested precision, returning the effective one.
func (e *Engine) setupCompact(prec Precision) Precision {
	m := e.m
	switch prec {
	case PrecF32:
		if !kernels.F32Bounds(m.Dim, e.maxAbs).Valid() {
			return PrecF64
		}
		if len(m.Data32) == len(m.Data) {
			e.data32 = m.Data32
		} else {
			e.data32, _ = points.ToFloat32(m.Data)
		}
		return PrecF32
	case PrecQ8:
		if len(m.Q8Codes) == len(m.Data) && m.Q8Params().Valid(m.Dim) {
			e.q8, e.q8par = m.Q8Codes, m.Q8Params()
		} else {
			codes, par, ok := points.QuantizeQ8(m.Data, m.Dim)
			if !ok {
				return PrecF64
			}
			e.q8, e.q8par = codes, par
		}
		e.q8bnd = kernels.Q8Bounds(m.Dim, e.q8par.ErrBound())
		if !e.q8bnd.Valid() {
			e.q8, e.q8par = nil, points.Q8Params{}
			return PrecF64
		}
		return PrecQ8
	}
	return PrecF64
}

func maxAbsOf(xs []float64) float64 {
	var m float64
	for _, v := range xs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Model returns the engine's model.
func (e *Engine) Model() *model.Model { return e.m }

// Buckets returns the number of distinct LSH buckets in the index.
func (e *Engine) Buckets() int {
	if e.ix == nil {
		return 0
	}
	return len(e.ix.Keys)
}

// Pruned reports whether the engine carries an LSH index.
func (e *Engine) Pruned() bool { return e.layouts != nil }

// FleetIndexed reports whether the engine can answer masked fleet scans
// (an LSH index over a sub-model with row IDs, so per-row layout keys are
// recorded for cross-shard dedup).
func (e *Engine) FleetIndexed() bool { return e.ix != nil && e.ix.RowKeys != nil }

// Layouts returns the number of LSH layouts (0 without an index).
func (e *Engine) Layouts() int {
	if e.layouts == nil {
		return 0
	}
	return e.layouts.M()
}

// Precision returns the effective scan precision.
func (e *Engine) Precision() Precision { return e.prec }

// MaxCoord returns the largest coordinate magnitude a dim-dimensional
// query may carry: with every coordinate of the query and the stored
// points bounded by it, no squared distance can overflow to +Inf. The
// server rejects larger (or non-finite) coordinates at admission.
func MaxCoord(dim int) float64 {
	return math.Sqrt(math.MaxFloat64/float64(dim)) / 2
}

// ErrNoFinite is returned when no stored point has a finite distance to a
// query (overflowing or non-finite coordinates); no assignment exists
// then. The fleet router returns the same error verbatim so a routed
// request fails byte-identically to a single-node one.
var ErrNoFinite = fmt.Errorf("serve: no finite distance from query to any stored point (coordinates non-finite or too large)")

// ErrNoCandidates is the per-query result of a masked fleet scan that
// found no (finite-distance) candidate in any of the layouts this shard
// was asked to probe. It is a routing signal, not a failure: when every
// owning shard answers this, the router broadcasts the exact-scan
// fallback, reproducing the single-node fallback rule.
var ErrNoCandidates = fmt.Errorf("serve: no LSH candidates in the probed layouts")

// BatchOpts selects the scan mode of one AssignBatchOpts call.
type BatchOpts struct {
	// ExactOnly forces the full-scan path for every query (the benchmark
	// switch and the fleet's broadcast fallback). Takes precedence over
	// Masks.
	ExactOnly bool
	// Masks, when non-nil, runs the fleet's masked pruned scan: entry i
	// has bit j set iff this engine should probe layout j for query i.
	// Requires FleetIndexed. Queries without candidates get
	// ErrNoCandidates instead of the exact fallback — the router decides
	// fleet-wide whether to fall back.
	Masks []uint64
}

// Assign answers one query. exactOnly forces the full-scan path (the
// pruned-vs-exact benchmark switch). scanned is the number of stored rows
// whose distance to the query was evaluated. An error means no stored
// point had a finite distance to the query; no assignment exists in that
// case.
func (e *Engine) Assign(q points.Vector, exactOnly bool) (Assignment, int, error) {
	out, errs, st := e.AssignBatch([]points.Vector{q}, exactOnly)
	return out[0], int(st.Scanned), errs[0]
}

// AssignBatch answers a micro-batch of queries, running every exact full
// scan in the batch through the multi-query NN kernels (one pass over each
// row tile serves all of them). Results and errors are per query: one
// query without a finite distance fails alone, not the batch. Every query
// must already match the model's dimensionality (the server validates at
// admission; a mismatch is a programming error and panics, as Assign
// always has).
func (e *Engine) AssignBatch(qs []points.Vector, exactOnly bool) ([]Assignment, []error, ScanStats) {
	return e.AssignBatchOpts(qs, BatchOpts{ExactOnly: exactOnly})
}

// AssignBatchOpts is AssignBatch with an explicit scan mode — the fleet
// entry point (see BatchOpts).
func (e *Engine) AssignBatchOpts(qs []points.Vector, opts BatchOpts) ([]Assignment, []error, ScanStats) {
	nq := len(qs)
	out := make([]Assignment, nq)
	errs := make([]error, nq)
	var st ScanStats
	for _, q := range qs {
		if len(q) != e.m.Dim {
			panic(fmt.Sprintf("serve: query dim %d, model dim %d", len(q), e.m.Dim))
		}
	}
	masked := !opts.ExactOnly && opts.Masks != nil
	if masked {
		if !e.FleetIndexed() {
			panic("serve: masked scan on an engine without a fleet index")
		}
		if len(opts.Masks) != nq {
			panic(fmt.Sprintf("serve: %d masks for %d queries", len(opts.Masks), nq))
		}
	}
	bs := e.batches.Get().(*batchScratch)
	bs.pending = bs.pending[:0]
	if opts.ExactOnly || e.layouts == nil {
		for i := range qs {
			bs.pending = append(bs.pending, int32(i))
		}
	} else {
		s := e.scratch.Get().(*scratch)
		for i, q := range qs {
			var cand []int32
			if masked {
				cand = e.candidatesMasked(q, opts.Masks[i], s)
			} else {
				cand = e.candidates(q, s)
			}
			if len(cand) == 0 {
				if masked {
					errs[i] = ErrNoCandidates
				} else {
					bs.pending = append(bs.pending, int32(i))
				}
				continue
			}
			best, best2, rerank := e.nnRows(q, cand, s)
			st.Scanned += int64(len(cand))
			st.Rerank += int64(rerank)
			if e.prec != PrecF64 {
				st.RerankQueries++
			}
			if best < 0 {
				// Every candidate distance overflowed to +Inf; the full
				// scan may still find a finite one. In masked mode that
				// decision belongs to the router.
				if masked {
					errs[i] = ErrNoCandidates
				} else {
					bs.pending = append(bs.pending, int32(i))
				}
				continue
			}
			out[i] = e.finalize(q, best, best2, false)
		}
		e.scratch.Put(s)
	}
	if len(bs.pending) > 0 {
		st.ExactQueries += int64(len(bs.pending))
		e.exactBatch(qs, bs, out, errs, &st)
	}
	e.batches.Put(bs)
	return out, errs, st
}

// candidates gathers the deduplicated LSH bucket union of q into s.cand.
func (e *Engine) candidates(q points.Vector, s *scratch) []int32 {
	s.epoch++
	if s.epoch <= 0 { // epoch wrapped: invalidate all stamps
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.cand = s.cand[:0]
	e.layouts.Hash(&s.kb, q)
	for j := 0; j < e.layouts.M(); j++ {
		id, ok := e.ix.Lookup(s.kb.Key(j))
		if !ok {
			continue
		}
		for _, r := range e.ix.Bucket(id) {
			if s.stamp[r] != s.epoch {
				s.stamp[r] = s.epoch
				s.cand = append(s.cand, r)
			}
		}
	}
	return s.cand
}

// CandidateRows appends the deduplicated LSH candidate-bucket union of q
// to dst and reports whether the engine has a pruned index at all (an
// engine built without LSH parameters returns dst unchanged and false —
// the caller owns the full-scan fallback). The ingest layer uses this to
// find the stored rows a new point adds density mass to; query answering
// stays on AssignBatchOpts.
func (e *Engine) CandidateRows(q points.Vector, dst []int32) ([]int32, bool) {
	if e.layouts == nil {
		return dst, false
	}
	s := e.scratch.Get().(*scratch)
	dst = append(dst, e.candidates(q, s)...)
	e.scratch.Put(s)
	return dst, true
}

// candidatesMasked gathers q's candidates from the layouts selected by
// mask. A row sitting in several of q's buckets must be scanned by exactly
// one shard fleet-wide, so each row goes to its FIRST matching layout in a
// per-query cyclic order starting at j0 = hash(q's bucket keys) mod M: the
// shard owning layout j scans bucket k_j(q) and skips any row that also
// matches q under a cyclically-earlier layout — whether that layout is in
// the mask or not (its owner takes the row). The skip check early-exits on
// the first cyclically-earlier match, so a row in a dense region costs one
// int32 compare, not an O(M) election; rotating the start by the query's
// key hash spreads a hot bucket's scan work across every layout's owner in
// aggregate instead of piling it onto layout 0's. j0 and the skip compares
// depend only on the query's key bytes and the row's own keys (a stored
// row interns all M of its keys), so every shard decides identically and
// the fleet-wide scan union equals the single-node dedup union exactly.
func (e *Engine) candidatesMasked(q points.Vector, mask uint64, s *scratch) []int32 {
	nl := e.layouts.M()
	s.qids = s.qids[:0]
	e.layouts.Hash(&s.kb, q)
	for j := 0; j < nl; j++ {
		id, ok := e.ix.Lookup(s.kb.Key(j))
		if !ok {
			id = -1 // key holds no stored row here; matches nothing
		}
		s.qids = append(s.qids, id)
	}
	j0 := ScanRotation(s.kb.Bytes(), nl)
	rowKeys := e.ix.RowKeys
	var sigQ uint64
	if e.bucketSigs != nil {
		for j, id := range s.qids {
			if id >= 0 {
				sigQ |= sigField(id) << uint(6*j)
			}
		}
	}
	s.cand = s.cand[:0]
	for j := 0; j < nl; j++ {
		if mask&(1<<uint(j)) == 0 {
			continue
		}
		id := s.qids[j]
		if id < 0 {
			continue
		}
		// Cyclic distance from j0 to j: the number of layouts to check.
		ahead := j - j0
		if ahead < 0 {
			ahead += nl
		}
		if e.bucketSigs != nil {
			// Fast path: one SWAR probe per row, streamed from the bucket's
			// posting-aligned signature array. notWin forces every field
			// outside the cyclic check window [j0, j) to a nonzero value, so
			// the zero-field test can only fire inside the window; firing is
			// conservative (hash aliases), the exact loop confirms. A missed
			// overlap is impossible — equal key IDs hash to equal fields —
			// so no row is ever dropped, and a (never-occurring) duplicate
			// scan would not change the merged argmin anyway.
			var win uint64
			for dj := 0; dj < ahead; dj++ {
				j2 := j0 + dj
				if j2 >= nl {
					j2 -= nl
				}
				win |= 0x3F << uint(6*j2)
			}
			notWin := ^win
			sigs := e.bucketSigs[e.ix.Offsets[id]:]
		fastRows:
			for p, r := range e.ix.Bucket(id) {
				y := (sigs[p] ^ sigQ) | notWin
				if (y-e.sigLows)&^y&e.sigHighs == 0 {
					s.cand = append(s.cand, r) // definitely no earlier match
					continue
				}
				base := int(r) * nl
				for dj := 0; dj < ahead; dj++ {
					j2 := j0 + dj
					if j2 >= nl {
						j2 -= nl
					}
					if rowKeys[base+j2] == s.qids[j2] {
						continue fastRows // earlier layout takes this row
					}
				}
				s.cand = append(s.cand, r)
			}
			continue
		}
	rows:
		for _, r := range e.ix.Bucket(id) {
			base := int(r) * nl
			for dj := 0; dj < ahead; dj++ {
				j2 := j0 + dj
				if j2 >= nl {
					j2 -= nl
				}
				if rowKeys[base+j2] == s.qids[j2] {
					continue rows // cyclically-earlier layout takes this row
				}
			}
			s.cand = append(s.cand, r)
		}
	}
	// Candidates arrive grouped by layout rather than in ascending row
	// order; that is fine — NNRows ties on the row index itself, and the
	// compact shortlist contract is order-independent (PR7's chunking
	// property tests), so the merged fleet answer is unaffected.
	return s.cand
}

// ScanRotation returns the start layout j₀ of the masked scan's cyclic
// first-match order for a query whose keys under all M layouts, back to back
// in layout order, are keys (lsh.KeyBuf.Bytes). It is part of the fleet
// scan-partition contract: every shard — and the fleet partitioner, which
// replays sample queries through the same rule to estimate each bucket's
// true scoring load — must derive the identical rotation from the identical
// key bytes.
func ScanRotation(keys []byte, layouts int) int {
	// 64-bit FNV-1a; its weak high bits are what mix64 is for.
	h := uint64(14695981039346656037)
	for _, c := range keys {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int(mix64(h) % uint64(layouts))
}

// mix64 is the splitmix64 finalizer: a cheap bijective scramble used to
// turn the query's folded key hash into a scan-rotation start layout in
// candidatesMasked. It must stay identical on every shard of a fleet — it
// is part of the scan-partition contract.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nnRows scans the candidate rows at the engine's precision: directly at
// f64, or compact-scan + exact float64 re-rank of the shortlist otherwise.
// rerank is the shortlist size (0 at f64). Results are bit-identical
// across precisions.
func (e *Engine) nnRows(q points.Vector, cand []int32, s *scratch) (best int, best2 float64, rerank int) {
	dim := e.m.Dim
	switch e.prec {
	case PrecF32:
		s.q32 = f32Append(s.q32[:0], q)
		s.sl.Reset(e.f32Bounds(q))
		kernels.NNRows32(e.data32, dim, s.q32, cand, &s.sl)
	case PrecQ8:
		kernels.BuildQ8LUT(e.q8par, q, &s.lut)
		s.sl.Reset(e.q8bnd)
		kernels.NNRowsQ8(e.q8, dim, &s.lut, cand, &s.sl)
	default:
		b, b2 := kernels.NNRows(e.m.Data, dim, q, cand)
		return b, b2, 0
	}
	short := s.sl.Finish()
	b, b2 := kernels.NNRows(e.m.Data, dim, q, short)
	return b, b2, len(short)
}

// exactBatch answers bs.pending through the batched exact-scan kernels.
func (e *Engine) exactBatch(qs []points.Vector, bs *batchScratch, out []Assignment, errs []error, st *ScanStats) {
	dim, n := e.m.Dim, e.m.N()
	np := len(bs.pending)
	bs.flat = bs.flat[:0]
	for _, qi := range bs.pending {
		bs.flat = append(bs.flat, qs[qi]...)
	}
	bs.best = intsN(bs.best, np)
	bs.best2 = floatsN(bs.best2, np)
	st.Scanned += int64(n) * int64(np)
	switch e.prec {
	case PrecF32:
		bs.flat32 = f32Append(bs.flat32[:0], bs.flat)
		bnd := e.f32Bounds(bs.flat)
		bs.sls = slsN(bs.sls, np)
		for i := range bs.sls {
			bs.sls[i].Reset(bnd)
		}
		kernels.NNBatch32(e.data32, dim, bs.flat32, 0, n, bs.sls)
		e.rerankBatch(qs, bs, st)
	case PrecQ8:
		bs.sls = slsN(bs.sls, np)
		bs.luts = lutsN(bs.luts, np)
		for i, qi := range bs.pending {
			kernels.BuildQ8LUT(e.q8par, qs[qi], &bs.luts[i])
			bs.sls[i].Reset(e.q8bnd)
		}
		kernels.NNBatchQ8(e.q8, dim, bs.luts, 0, n, bs.sls)
		e.rerankBatch(qs, bs, st)
	default:
		kernels.NNBatch(e.m.Data, dim, bs.flat, 0, n, bs.best, bs.best2)
	}
	for i, qi := range bs.pending {
		if bs.best[i] < 0 {
			errs[qi] = ErrNoFinite
			continue
		}
		out[qi] = e.finalize(qs[qi], int(bs.best[i]), bs.best2[i], true)
	}
}

// rerankBatch resolves each pending query's shortlist exactly in float64.
func (e *Engine) rerankBatch(qs []points.Vector, bs *batchScratch, st *ScanStats) {
	for i, qi := range bs.pending {
		short := bs.sls[i].Finish()
		st.Rerank += int64(len(short))
		st.RerankQueries++
		b, b2 := kernels.NNRows(e.m.Data, e.m.Dim, qs[qi], short)
		bs.best[i], bs.best2[i] = int32(b), b2
	}
}

// f32Bounds builds the f32 scan bounds for query coordinates quals (any
// flat slice of them), folding their magnitude into the model-wide one.
func (e *Engine) f32Bounds(quals []float64) kernels.Bounds {
	return kernels.F32Bounds(e.m.Dim, math.Max(e.maxAbs, maxAbsOf(quals)))
}

// finalize builds the Assignment once the nearest stored row is known.
// Nearest is reported as the GLOBAL point ID (identical to the local row
// on a full model), so fleet answers merge and compare across shards.
func (e *Engine) finalize(q points.Vector, best int, best2 float64, exact bool) Assignment {
	cluster := e.m.Labels[best]
	peak := e.m.Peaks[cluster]
	return Assignment{
		Cluster:  cluster,
		Halo:     e.m.Rho[best] < e.m.Border[cluster],
		Nearest:  e.m.GlobalID(best),
		Dist:     math.Sqrt(best2),
		Dist2:    best2,
		PeakDist: points.Dist(q, e.m.Row(int(peak))),
		Exact:    exact,
	}
}

func f32Append(dst []float32, src []float64) []float32 {
	for _, v := range src {
		dst = append(dst, float32(v))
	}
	return dst
}

func intsN(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func floatsN(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func slsN(s []kernels.Shortlist, n int) []kernels.Shortlist {
	if cap(s) < n {
		ns := make([]kernels.Shortlist, n)
		copy(ns, s[:cap(s)])
		return ns
	}
	return s[:n]
}

func lutsN(s []kernels.Q8LUT, n int) []kernels.Q8LUT {
	if cap(s) < n {
		ns := make([]kernels.Q8LUT, n)
		copy(ns, s[:cap(s)])
		return ns
	}
	return s[:n]
}
