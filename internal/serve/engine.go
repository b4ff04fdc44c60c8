// Package serve is the online cluster-serving subsystem: it answers "which
// cluster does this point belong to?" against a frozen model artifact
// (internal/model) without rerunning any MapReduce job.
//
// The engine reuses the training run's LSH machinery as an approximate
// nearest-neighbor index: it regenerates the M hash layouts from the
// model's parameters, buckets every stored point under each layout, and
// answers a query from the query's M buckets with the dense NN kernels —
// the same locality-preserving partitions that made ρ̂/δ̂ accurate make the
// nearest labeled point overwhelmingly likely to share a bucket with the
// query. Buckets are kept sorted on one coordinate, so a query never scans
// their union: it sweeps each bucket outward from its own coordinate until
// that coordinate alone rules the rest out, and stops at the first bucket
// when the LSH guarantee radius proves no other can hold a closer row — the
// union's nearest row either way. When no bucket holds a row at a finite
// distance (a query far from all training data) the engine falls back to an
// exact full scan, so an answer is always returned and is always the label
// of some stored point.
//
// Scans run at a configurable precision (serve.scan.precision): f64 streams
// the float64 block directly; f32 and q8 stream a compact mirror (half or
// an eighth of the bytes), collect a provably sufficient shortlist, and
// re-rank it exactly in float64 (internal/kernels compact scan path), so
// labels, NN indices, distances, and the tie rule are bit-identical across
// precisions. The exact full scan reads the float64 block at every
// precision, through the multi-query NNBatch kernel: one pass over each row
// tile serves every query of the call.
//
// The HTTP server in server.go answers each request on the handler that
// admitted it, behind a bounded admission queue with load shedding, and
// adds latency histograms, health/stats endpoints, hot model reload, and
// graceful drain — see DESIGN.md "Online serving".
package serve

import (
	"fmt"
	"math"
	"sort"
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
	// query was evaluated: the rows the bucket sweeps did not prune (at most
	// the size of the query's bucket union), or every row on the exact path.
	Scanned int64
	// Certified counts queries answered from one bucket (see Engine.sweep);
	// never set by a masked or exact scan.
	Certified int64
	// Rerank counts shortlist rows re-ranked in exact float64 after a
	// compact bucket sweep (0 at PrecF64).
	Rerank int64
	// RerankQueries counts queries whose nearest neighbor came out of a
	// compact bucket sweep + exact re-rank (0 at PrecF64, and for queries
	// the exact full scan answered).
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
	// interned to a bucket ID, each bucket's rows one slice of a single CSR
	// postings block, sorted on the sweep axis (rows with a non-finite
	// coordinate there last). ix.RowKeys — each row's bucket ID under
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

	// axis is the coordinate every bucket is sorted on (ix.WidestAxis of the
	// model data), coord[row] each row's value there, +Inf standing for a
	// non-finite one.
	axis  int
	coord []float64

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

// scratch is the reusable per-query sweep state.
type scratch struct {
	stamp []int32 // per-row epoch marks
	epoch int32
	kb    lsh.KeyBuf
	strip []int32 // the postings of one strip that pass the filter (CandidateRows: the union)
	// The sink: acc at f64, sl (fed from q32 or lut) otherwise.
	acc kernels.TopKAcc
	top []kernels.TopKEntry
	q32 []float32
	sl  kernels.Shortlist
	lut kernels.Q8LUT
	// Fleet mode: the query's bucket ID per layout (-1: no stored row shares
	// the key), their packed signature, and the rotation start.
	qids []int32
	sigQ uint64
	j0   int
}

// batchScratch is the reusable per-batch exact-scan state.
type batchScratch struct {
	pending []int32 // query indices still needing the exact scan
	flat    []float64
	best    []int32
	best2   []float64
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
	e.ix = e.layouts.BuildIndex(m.Data, n, func(ix *lsh.Index) (order []int32) {
		e.axis = ix.WidestAxis(m.Data, m.Dim)
		order, e.coord = kernels.RowOrder(m.Data, m.Dim, e.axis)
		return order
	})
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

// AssignBatch answers a batch of queries, running every exact full scan in
// the batch through the multi-query NNBatch kernel (one pass over each row
// tile serves all of them). Results and errors are per query: one
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
			var mask uint64
			if masked {
				mask = opts.Masks[i]
			}
			best, best2 := e.sweep(q, mask, masked, s, &st)
			if best < 0 {
				// No probed bucket holds a row at a finite distance; the
				// full scan may still find one. In masked mode that
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

// CandidateRows appends the deduplicated LSH candidate-bucket union of q
// to dst and reports whether the engine has a pruned index at all (an
// engine built without LSH parameters returns dst unchanged and false —
// the caller owns the full-scan fallback). The ingest layer uses this to
// find the stored rows a new point adds density mass to — a d_c ball, which
// the nearest-neighbor sweep of the query path does not bound; query
// answering stays on AssignBatchOpts and never gathers the union.
func (e *Engine) CandidateRows(q points.Vector, dst []int32) ([]int32, bool) {
	if e.layouts == nil {
		return dst, false
	}
	s := e.scratch.Get().(*scratch)
	s.nextEpoch()
	s.strip = s.strip[:0]
	e.layouts.Hash(&s.kb, q)
	for j := 0; j < e.layouts.M(); j++ {
		if id, ok := e.ix.Lookup(s.kb.Key(j)); ok {
			s.strip = s.unseen(e.ix.Bucket(id), s.strip)
		}
	}
	dst = append(dst, s.strip...) // one exact-size growth, not a doubling run
	e.scratch.Put(s)
	return dst, true
}

// nextEpoch starts a new query's de-duplication marks.
func (s *scratch) nextEpoch() {
	s.epoch++
	if s.epoch <= 0 { // epoch wrapped: invalidate all stamps
		clear(s.stamp)
		s.epoch = 1
	}
}

// unseen marks rows for this epoch, appending the newly marked to dst.
func (s *scratch) unseen(rows, dst []int32) []int32 {
	for _, r := range rows {
		if s.stamp[r] != s.epoch {
			s.stamp[r] = s.epoch
			dst = append(dst, r)
		}
	}
	return dst
}

// sweep is the pruned scan of one query: the nearest row of q's LSH bucket
// union and its squared distance — (-1, +Inf) when no row there is at a
// finite distance — without gathering the union. Each bucket is walked
// outward from q's coordinate on e.axis (kernels.Sweep) into one sink all
// of them share — a k = 1 TopKAcc at f64, the compact Shortlist otherwise —
// so a row whose axis gap alone exceeds the sink's threshold is never
// evaluated, nor any row beyond it, and what one bucket proved too far stays
// too far in the next.
//
// Unmasked, the bucket of the layout that attains q's guarantee radius g
// goes first. When the best distance found there is strictly inside g,
// every stored row that close — the union's nearest and all that tie with
// it — shares that bucket (lsh.Layouts.GuaranteeRadius): the answer is the
// union's and no other bucket is opened (st.Certified). The test is on the
// exact distance, so the same queries certify at every precision. Otherwise
// the other buckets follow, the epoch stamps keeping a row met again in a
// later bucket's window from being evaluated twice. Masked (fleet mode),
// the layouts in mask are swept through firstMatch, with no certificate:
// the router owns the fleet-wide decision.
func (e *Engine) sweep(q points.Vector, mask uint64, masked bool, s *scratch, st *ScanStats) (best int, best2 float64) {
	nl := e.layouts.M()
	e.layouts.Hash(&s.kb, q)
	switch e.prec {
	case PrecF32:
		s.q32 = f32Append(s.q32[:0], q)
		s.sl.Reset(e.f32Bounds(q))
	case PrecQ8:
		kernels.BuildQ8LUT(e.q8par, q, &s.lut)
		s.sl.Reset(e.q8bnd)
	default:
		s.acc.Reset(1)
	}
	scanned, certified := 0, false
	if masked {
		e.lookupAll(s)
		for j, id := range s.qids {
			if id >= 0 && mask&(1<<uint(j)) != 0 {
				scanned += e.sweepBucket(q, id, j, s)
			}
		}
	} else {
		s.nextEpoch()
		open := func(j int) {
			if id, ok := e.ix.Lookup(s.kb.Key(j)); ok {
				scanned += e.sweepBucket(q, id, -1, s)
			}
		}
		g, first := e.layouts.GuaranteeRadius(&s.kb)
		open(first)
		best, best2 = e.nearest(q, s, st)
		certified = best >= 0 && math.Sqrt(best2) < g
		for j := 0; j < nl && !certified; j++ {
			if j != first {
				open(j)
			}
		}
	}
	if certified {
		st.Certified++
	} else {
		best, best2 = e.nearest(q, s, st)
	}
	st.Scanned += int64(scanned)
	if scanned > 0 && e.prec != PrecF64 {
		st.RerankQueries++
	}
	return best, best2
}

// sweepBucket walks bucket id outward from q into the sink and returns how
// many rows it evaluated. Each strip is filtered first: through firstMatch
// for masked layout j ≥ 0, through the epoch stamps otherwise.
func (e *Engine) sweepBucket(q points.Vector, id int32, j int, s *scratch) (scanned int) {
	rows, dim := e.ix.Bucket(id), e.m.Dim
	n := len(rows)
	if e.coord[rows[n-1]] == math.Inf(1) {
		// Non-finite axis coordinates sort last and rule out any finite
		// distance: those rows stay out of the walk.
		n = sort.Search(n, func(i int) bool { return e.coord[rows[i]] == math.Inf(1) })
	}
	thr := s.acc.Threshold
	if e.prec != PrecF64 {
		thr = s.sl.Threshold
	}
	kernels.Sweep(n, q[e.axis], func(i int) float64 { return e.coord[rows[i]] }, thr, func(lo, hi int) {
		if j >= 0 {
			s.strip = e.firstMatch(j, id, lo, hi, s)
		} else {
			s.strip = s.unseen(rows[lo:hi], s.strip[:0])
		}
		scanned += len(s.strip)
		switch e.prec {
		case PrecF32:
			kernels.NNRows32(e.data32, dim, s.q32, s.strip, &s.sl)
		case PrecQ8:
			kernels.NNRowsQ8(e.q8, dim, &s.lut, s.strip, &s.sl)
		default:
			kernels.TopKRows(e.m.Data, dim, q, s.strip, &s.acc)
		}
	})
	return scanned
}

// nearest resolves the sink to the exact nearest of the rows scanned so far
// (at f32/q8 by re-ranking the shortlist, which stays usable afterwards).
func (e *Engine) nearest(q points.Vector, s *scratch, st *ScanStats) (int, float64) {
	if e.prec == PrecF64 {
		if s.top = s.acc.Append(s.top[:0]); len(s.top) == 0 {
			return -1, math.Inf(1)
		}
		return int(s.top[0].Row), s.top[0].D2
	}
	short := s.sl.Finish()
	st.Rerank += int64(len(short))
	return kernels.NNRows(e.m.Data, e.m.Dim, q, short)
}

// lookupAll resolves the hashed query's bucket under every layout into
// s.qids, with its signature and the rotation start of the first-match
// order.
func (e *Engine) lookupAll(s *scratch) {
	nl := e.layouts.M()
	s.qids, s.sigQ = s.qids[:0], 0
	for j := 0; j < nl; j++ {
		id, ok := e.ix.Lookup(s.kb.Key(j))
		if !ok {
			id = -1 // key holds no stored row here; matches nothing
		} else if e.bucketSigs != nil {
			s.sigQ |= sigField(id) << uint(6*j)
		}
		s.qids = append(s.qids, id)
	}
	s.j0 = ScanRotation(s.kb.Bytes(), nl)
}

// firstMatch filters postings [lo, hi) of bucket id — q's bucket under
// layout j — into s.strip. A row sitting in several of q's buckets must be
// scanned by exactly one shard fleet-wide, so each row goes to its FIRST
// matching layout in a per-query cyclic order starting at j0 = hash(q's
// bucket keys) mod M: the shard owning layout j sweeps bucket k_j(q) and
// skips any row that also matches q under a cyclically-earlier layout —
// whether that layout is in the mask or not (its owner takes the row, and
// evaluates it unless its own sweep proves the row cannot win there either).
// The skip check early-exits on the first cyclically-earlier match, so a row
// in a dense region costs one int32 compare, not an O(M) election; rotating
// the start by the query's key hash spreads a hot bucket's scan work across
// every layout's owner in aggregate instead of piling it onto layout 0's.
// j0 and the skip compares depend only on the query's key bytes and the
// row's own keys (a stored row interns all M of its keys), so every shard
// decides identically and the fleet-wide scan union is a subset of the
// single-node dedup union that still holds its nearest row.
func (e *Engine) firstMatch(j int, id int32, lo, hi int, s *scratch) []int32 {
	nl, rowKeys, qids, j0 := e.layouts.M(), e.ix.RowKeys, s.qids, s.j0
	sigQ, lows, highs := s.sigQ, e.sigLows, e.sigHighs
	rows, strip := e.ix.Bucket(id)[lo:hi], s.strip[:0]
	// Cyclic distance from j0 to j: the number of layouts to check. notWin
	// forces every signature field outside that window [j0, j) to a nonzero
	// value, so the zero-field test below can only fire inside it.
	ahead, notWin := (j-j0+nl)%nl, ^uint64(0)
	for dj := 0; dj < ahead; dj++ {
		notWin &^= 0x3F << uint(6*((j0+dj)%nl))
	}
	var sigs []uint64
	if e.bucketSigs != nil {
		sigs = e.bucketSigs[e.ix.Offsets[id]+lo:][:len(rows)]
	}
rows:
	for p, r := range rows {
		if sigs != nil {
			// Fast path: one SWAR probe per row, streamed from the bucket's
			// posting-aligned signature array. Firing is conservative (hash
			// aliases), the exact loop confirms. A missed overlap is
			// impossible — equal key IDs hash to equal fields — so no row
			// is ever dropped, and a (never-occurring) duplicate scan would
			// not change the merged argmin anyway.
			y := (sigs[p] ^ sigQ) | notWin
			if (y-lows)&^y&highs == 0 {
				strip = append(strip, r) // definitely no earlier match
				continue
			}
		}
		base := int(r) * nl
		for dj := 0; dj < ahead; dj++ {
			j2 := j0 + dj
			if j2 >= nl {
				j2 -= nl
			}
			if rowKeys[base+j2] == qids[j2] {
				continue rows // cyclically-earlier layout takes this row
			}
		}
		strip = append(strip, r)
	}
	return strip
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
// firstMatch. It must stay identical on every shard of a fleet — it
// is part of the scan-partition contract.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// exactBatch answers bs.pending through the float64 NNBatch scan at every
// precision: a compact scan's answer is this scan's by its own contract.
func (e *Engine) exactBatch(qs []points.Vector, bs *batchScratch, out []Assignment, errs []error, st *ScanStats) {
	n, np := e.m.N(), len(bs.pending)
	bs.flat = bs.flat[:0]
	for _, qi := range bs.pending {
		bs.flat = append(bs.flat, qs[qi]...)
	}
	bs.best = intsN(bs.best, np)
	bs.best2 = floatsN(bs.best2, np)
	st.Scanned += int64(n) * int64(np)
	kernels.NNBatch(e.m.Data, e.m.Dim, bs.flat, 0, n, bs.best, bs.best2)
	for i, qi := range bs.pending {
		if bs.best[i] < 0 {
			errs[qi] = ErrNoFinite
			continue
		}
		out[qi] = e.finalize(qs[qi], int(bs.best[i]), bs.best2[i], true)
	}
}

// f32Bounds builds the f32 scan bounds for query q, folding its magnitude
// into the model-wide one.
func (e *Engine) f32Bounds(q []float64) kernels.Bounds {
	return kernels.F32Bounds(e.m.Dim, math.Max(e.maxAbs, maxAbsOf(q)))
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
