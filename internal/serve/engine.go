// Package serve is the online cluster-serving subsystem: it answers "which
// cluster does this point belong to?" against a frozen model artifact
// (internal/model) without rerunning any MapReduce job.
//
// The engine reuses the training run's LSH machinery as an approximate
// nearest-neighbor index: it regenerates the M hash layouts from the
// model's parameters, buckets every stored point under each layout, and
// answers a query from the query's M buckets with the k = 1 top-k scan —
// the same locality-preserving partitions that made ρ̂/δ̂ accurate make the
// nearest labeled point overwhelmingly likely to share a bucket with the
// query. A query never gathers their union: it walks one box tree over all
// the stored rows (internal/kernels BoxTree), nearest leaves first, skipping
// a node whose box lies farther than the best row so far and evaluating only
// the rows of a leaf that share one of its buckets. It walks the bucket of
// one layout first and stops there when the LSH guarantee radius proves no
// other bucket can hold a closer row — the union's nearest row either way.
// When no bucket holds a row at a finite
// distance (a query far from all training data) the engine falls back to an
// exact full scan, so an answer is always returned and is always the label
// of some stored point.
//
// Scans run at a configurable precision (serve.scan.precision): f64 streams
// the float64 block directly; q8 first streams the 8-bit quantized codes (an
// eighth of the bytes) and computes a row's exact float64 distance only
// when its compact one says it can still tie or beat the best so far
// (internal/kernels TopKCompact). Every precision feeds the same exact sink,
// so labels, NN indices, distances, the tie rule and even the rows a walk
// evaluates are identical across precisions. The exact full scan reads the
// float64 block at every precision, through the multi-query TopKBatch kernel
// into one k = 1 accumulator per query: one pass over each row tile serves
// every query of the call.
//
// The HTTP server in server.go answers each request on the handler that
// admitted it, behind a bounded admission queue with load shedding, and
// adds latency histograms, health/stats endpoints, hot model reload, and
// graceful drain — see DESIGN.md "Online serving".
package serve

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// Certified reports that the one-bucket certificate answered (see
	// Engine.sweep): no stored row outside the bucket walked first can be
	// closer. The fleet router stops at a shard that says so; like Dist2 it
	// never appears on the public /assign response.
	Certified bool `json:"-"`
}

// Precision selects the scan representation of the serving engine.
type Precision uint8

const (
	// PrecF64 scans the float64 block directly (the exact baseline).
	PrecF64 Precision = iota
	// PrecF32 is served at f64. Harness-only; deleted with ROADMAP item 1(a).
	PrecF32
	// PrecQ8 filters rows on 8-bit quantized codes, through a per-query
	// lookup table, before their exact distance.
	PrecQ8
)

// ParsePrecision parses a serve.scan.precision value ("" means f64).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", kernels.ScanF64:
		return PrecF64, nil
	case kernels.ScanQ8:
		return PrecQ8, nil
	}
	return PrecF64, fmt.Errorf("serve: unknown scan precision %q (want f64 or q8)", s)
}

// String returns the knob spelling of p.
func (p Precision) String() string {
	if p == PrecQ8 {
		return kernels.ScanQ8
	}
	return kernels.ScanF64
}

// ScanStats aggregates the scan work of one AssignBatch call.
type ScanStats struct {
	// Scanned counts stored rows whose (compact or exact) distance to a
	// query was evaluated: the union rows the tree walks did not prune (at
	// most the size of the query's bucket union), or every row on the exact
	// path.
	Scanned int64
	// Certified counts queries answered from one bucket (see Engine.sweep);
	// never set by an exact scan, nor by a masked one whose mask lacks the
	// certifying layout.
	Certified int64
	// Rerank counts the exact float64 distances a compact tree walk
	// computed: the evaluated rows its compact filter let through (0 at
	// PrecF64, where every evaluated row's distance is exact).
	Rerank int64
	// RerankQueries counts queries whose tree walk evaluated rows through
	// the compact filter (0 at PrecF64, and for queries the exact full scan
	// answered).
	RerankQueries int64
	// ExactQueries counts queries answered by the exact full-scan path.
	ExactQueries int64

	// boxes and tested count the walks' box bounds and the leaf rows their
	// bucket filter tested: the work Scanned leaves out.
	boxes, tested int64
}

// Engine answers queries against one immutable model. It is safe for
// concurrent use; the server swaps the whole engine on hot reload.
type Engine struct {
	m       *model.Model
	layouts *lsh.Layouts
	// ix is the bucket index of the stored points: every distinct LSH key
	// interned to a bucket ID, and ix.RowKeys, each row's bucket ID under
	// every layout, row-major n×M: the tree walks' filter, through which
	// every walk finds a bucket's rows.
	ix *lsh.Index
	// tree is the box tree over every stored row with finite coordinates.
	tree kernels.BoxTree

	// q8 holds the quantized codes of an engine serving at PrecQ8; nil at
	// PrecF64, requested or forced by data the codes cannot support (e.g.
	// unquantizable coordinates).
	q8    []uint8
	q8par points.Q8Params // their per-dimension affine parameters
	q8bnd kernels.Bounds  // query-independent q8 scan bounds
}

// The per-query and per-batch scan state is pooled at package level, not
// per engine: a pool inside an engine is on the runtime's pool list, so a
// retired engine and its model would outlive a swap by one more
// collection. Nothing pooled points into a model (putScratch drops the q8
// codes).
var (
	scratchPool = sync.Pool{New: func() any { return new(scratch) }}
	batchPool   = sync.Pool{New: func() any { return new(batchScratch) }}
)

// scratch is the reusable per-query walk state.
type scratch struct {
	kb lsh.KeyBuf
	f  bucketFilter
	// The sink, at every precision, and the compact filter in front of it.
	acc kernels.TopKAcc
	cq  kernels.Compact
	// bound is the query's cap (BatchOpts.Bounds), +Inf without one.
	bound float64
}

// bucketFilter is the tree walk's leaf filter: q's buckets, in the walk's
// cyclic layout order from the certifying layout, against each row's bucket
// IDs.
type bucketFilter struct {
	rowKeys []int32 // the engine's ix.RowKeys
	nl      int     // its layout count
	probe   []layoutBucket
	kept    []int32 // the rows a filter call returns
}

// layoutBucket is q's bucket id under layout j; own reports whether this
// engine evaluates the rows whose first bucket shared with q, in the
// probe's order, is this one.
type layoutBucket struct {
	j   int
	id  int32
	own bool
}

// cert is the walk's first phase: it admits the rows of q's bucket under
// the certifying layout, f.probe[0].
func (f *bucketFilter) cert(leaf []int32) []int32 {
	b, dst := f.probe[0], f.kept[:0]
	for _, r := range leaf {
		if f.rowKeys[int(r)*f.nl+b.j] == b.id {
			dst = append(dst, r)
		}
	}
	f.kept = dst
	return dst
}

// union is the walk's second phase: it admits a row when the first bucket
// of f.probe that the row shares with q is one this engine owns.
func (f *bucketFilter) union(leaf []int32) []int32 {
	dst := f.kept[:0]
	for _, r := range leaf {
		keys := f.rowKeys[int(r)*f.nl:][:f.nl]
		for _, b := range f.probe {
			if keys[b.j] == b.id {
				if b.own {
					dst = append(dst, r)
				}
				break
			}
		}
	}
	f.kept = dst
	return dst
}

// shares is the density fold's filter: it admits each row that shares a
// bucket with q under some layout — q's bucket union, owned or not.
func (f *bucketFilter) shares(leaf []int32) []int32 {
	dst := f.kept[:0]
	for _, r := range leaf {
		keys := f.rowKeys[int(r)*f.nl:][:f.nl]
		for _, b := range f.probe {
			if keys[b.j] == b.id {
				dst = append(dst, r)
				break
			}
		}
	}
	f.kept = dst
	return dst
}

// owns reports whether the union phase can admit any row.
func (f *bucketFilter) owns() bool {
	for _, b := range f.probe {
		if b.own {
			return true
		}
	}
	return false
}

// batchScratch is the reusable per-batch exact-scan state.
type batchScratch struct {
	pending []int32 // query indices still needing the exact scan
	flat    []float64
	accs    []kernels.TopKAcc // one k = 1 sink per pending query
}

// NewEngine indexes a model for serving at the requested scan precision.
// With LSH parameters present the index holds M buckets per stored point; a
// model exported without LSH (M == 0) serves through exact scans only.
// When the model cannot support the requested compact representation the
// engine silently serves at f64 — check Precision() for the effective
// setting. Results are identical either way. No query waits on this build,
// so it runs on GOMAXPROCS goroutines; the engine does not depend on how
// many.
func NewEngine(m *model.Model, prec Precision) (*Engine, error) {
	return build(m, prec, runtime.GOMAXPROCS(0))
}

// Successor indexes m to take e's place, as NewEngine does. Beside a
// serving engine — a reload, a compaction — the build runs on one
// goroutine, leaving the cores to e's queries; with no engine serving (e
// nil) it is NewEngine. The engine it returns is NewEngine's either way.
func (e *Engine) Successor(m *model.Model, prec Precision) (*Engine, error) {
	if e == nil {
		return NewEngine(m, prec)
	}
	return build(m, prec, 1)
}

// build is NewEngine on workers goroutines.
func build(m *model.Model, prec Precision, workers int) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{m: m, layouts: m.Layouts()}
	if prec == PrecQ8 {
		e.setupQ8(workers)
	}
	if e.layouts == nil {
		return e, nil
	}
	e.ix = e.layouts.BuildIndex(m.Data, m.N(), workers)
	e.tree.BuildWorkers(m.Data, m.Dim, workers)
	return e, nil
}

// setupQ8 adopts the model artifact's q8 codes, or derives them from the
// data on workers goroutines; it leaves e.q8 nil when the data cannot be
// quantized with usable bounds.
func (e *Engine) setupQ8(workers int) {
	m := e.m
	codes, par := m.Q8Codes, m.Q8Params()
	if len(codes) != len(m.Data) || !par.Valid(m.Dim) {
		var ok bool
		if codes, par, ok = points.QuantizeQ8Workers(m.Data, m.Dim, workers); !ok {
			return
		}
	}
	if bnd := kernels.Q8Bounds(m.Dim, par.ErrBound()); bnd.Valid() {
		e.q8, e.q8par, e.q8bnd = codes, par, bnd
	}
}

// Model returns the engine's model.
func (e *Engine) Model() *model.Model { return e.m }

// Buckets returns the number of distinct LSH buckets in the index.
func (e *Engine) Buckets() int {
	if e.ix == nil {
		return 0
	}
	return e.ix.Len()
}

// FleetIndexed reports whether the engine can answer masked fleet scans: an
// LSH index over a sub-model with row IDs.
func (e *Engine) FleetIndexed() bool { return e.ix != nil && len(e.m.RowIDs) > 0 }

// Layouts returns the number of LSH layouts (0 without an index).
func (e *Engine) Layouts() int {
	if e.layouts == nil {
		return 0
	}
	return e.layouts.M()
}

// Precision returns the effective scan precision.
func (e *Engine) Precision() Precision {
	if e.q8 != nil {
		return PrecQ8
	}
	return PrecF64
}

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
	// Bounds, when non-nil beside Masks, caps each masked query: entry i is
	// an exact squared distance a row must tie or beat to answer query i
	// (+Inf: no cap) — the best the router already holds from another shard.
	// A query with no row that close gets ErrNoCandidates.
	Bounds []float64
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
// the batch through the multi-query TopKBatch kernel (one pass over each row
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
		if opts.Bounds != nil && len(opts.Bounds) != nq {
			panic(fmt.Sprintf("serve: %d bounds for %d queries", len(opts.Bounds), nq))
		}
	}
	bs := batchPool.Get().(*batchScratch)
	bs.pending = bs.pending[:0]
	if opts.ExactOnly || e.layouts == nil {
		for i := range qs {
			bs.pending = append(bs.pending, int32(i))
		}
	} else {
		s := e.getScratch()
		for i, q := range qs {
			var others uint64 // the single node owns every layout
			s.bound = math.Inf(1)
			if masked {
				others = ^opts.Masks[i]
				if opts.Bounds != nil {
					s.bound = opts.Bounds[i]
				}
			}
			best, best2, certified := e.sweep(q, others, s, &st)
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
			out[i].Certified = certified
		}
		putScratch(s)
	}
	if len(bs.pending) > 0 {
		st.ExactQueries += int64(len(bs.pending))
		e.exactBatch(qs, bs, out, errs, &st)
	}
	batchPool.Put(bs)
	return out, errs, st
}

// CandidateRows appends to dst, each once, the rows a point at q folds its
// density onto: those strictly within d_c of q (kernels.Within on e.tree)
// that share an LSH bucket with it. Without an index it returns dst and
// false (the caller scans every row).
func (e *Engine) CandidateRows(q points.Vector, dst []int32) ([]int32, bool) {
	if e.layouts == nil {
		return dst, false
	}
	s := e.getScratch()
	e.probe(q, 0, s)
	dst = kernels.Within(&e.tree, e.m.Data, q, e.m.Dc*e.m.Dc, s.f.shares, dst)
	putScratch(s)
	return dst, true
}

// getScratch takes a scratch from the pool, its filter reading e's rows.
func (e *Engine) getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.f.rowKeys, s.f.nl, s.f.probe = e.ix.RowKeys, e.layouts.M(), s.f.probe[:0]
	return s
}

// putScratch returns s to the pool without the model data its filters last
// read, so no pooled scratch holds a retired model.
func putScratch(s *scratch) {
	s.f.rowKeys = nil
	s.cq.Reset(nil, points.Q8Params{}, nil, kernels.Bounds{})
	scratchPool.Put(s)
}

// sweep is the pruned scan of one query: the nearest row of q's LSH bucket
// union and its squared distance — (-1, +Inf) when no row there is at a
// finite distance — without gathering the union. It walks e.tree
// (kernels.TopKLeaves) into one k = 1 TopKAcc, behind the compact filter at
// q8, so a node whose box lies strictly farther than the exact best is never
// opened; a leaf's rows are tested against q's buckets (ix.RowKeys) and
// only the union's are evaluated. The filter never changes what the sink
// holds after a leaf, so every precision evaluates the same rows.
//
// The walk runs in two phases from the layout that attains q's guarantee
// radius g — its certifying layout. The first admits only the rows of q's
// bucket there. When the best distance it finds is strictly inside g, every
// stored row that close — the union's nearest and all that tie with it —
// shares that bucket (lsh.Layouts.GuaranteeRadius): the answer is the
// union's and the walk stops (certified). The test is on the exact
// distance, so the same queries certify at every precision. Otherwise the
// second phase walks again under the same falling threshold and admits a
// row when the first layout, in cyclic order from the certifying one, under
// which it shares q's bucket is one this engine owns and not the certifying
// one — so no row is evaluated twice, and the answer is the union's nearest
// row, which does not depend on the order rows come in.
//
// others is the set of layouts other shards own (fleet mode; 0 on a single
// node, at any M): a row whose first shared layout is one of them is its
// owner's to evaluate, so each row is evaluated at most once fleet-wide and
// the winner by its owner. A masked query certifies only on the shard that
// owns its certifying layout: the whole bucket lives there, so the test is
// the single node's own.
//
// s.bound caps the sink: a row farther than it is never the answer, and
// none within it is (-1, +Inf).
func (e *Engine) sweep(q points.Vector, others uint64, s *scratch, st *ScanStats) (best int, best2 float64, certified bool) {
	g, cert := e.probe(q, others, s)
	s.cq.Reset(e.q8, e.q8par, q, e.q8bnd)
	s.acc.Reset(1)
	s.acc.Cap(s.bound)
	var walk kernels.LeafStats
	add := func(w kernels.LeafStats) {
		walk.Rows += w.Rows
		walk.Exact += w.Exact
		walk.Boxes += w.Boxes
		walk.Tested += w.Tested
	}
	if cert {
		add(kernels.TopKLeaves(&e.tree, e.m.Data, q, &s.cq, s.f.cert, &s.acc))
		best, best2 = s.acc.Nearest()
		certified = best >= 0 && math.Sqrt(best2) < g
		s.f.probe[0].own = false // its rows are evaluated
	}
	if !certified && s.f.owns() {
		add(kernels.TopKLeaves(&e.tree, e.m.Data, q, &s.cq, s.f.union, &s.acc))
	}
	if certified {
		st.Certified++
	}
	best, best2 = s.acc.Nearest()
	st.Scanned += int64(walk.Rows)
	st.boxes += int64(walk.Boxes)
	st.tested += int64(walk.Tested)
	if walk.Rows > 0 && e.q8 != nil {
		st.Rerank += int64(walk.Exact)
		st.RerankQueries++
	}
	return best, best2, certified
}

// probe hashes q and fills s.f.probe with q's buckets in cyclic layout order
// from the certifying layout, each owned unless others holds its layout. It
// returns q's guarantee radius and whether s.f.probe[0] is the certifying
// layout's bucket and owned: the walk's first phase.
func (e *Engine) probe(q points.Vector, others uint64, s *scratch) (g float64, cert bool) {
	e.layouts.Hash(&s.kb, q)
	g, first := e.layouts.GuaranteeRadius(&s.kb)
	s.f.probe = s.f.probe[:0]
	for i := 0; i < s.f.nl; i++ {
		j := (first + i) % s.f.nl
		if id, ok := e.ix.Lookup(s.kb.Key(j)); ok {
			s.f.probe = append(s.f.probe, layoutBucket{j, id, others&(1<<uint(j)) == 0})
		}
	}
	return g, len(s.f.probe) > 0 && s.f.probe[0].j == first && s.f.probe[0].own
}

// exactBatch answers bs.pending through the float64 TopKBatch scan into
// one k = 1 sink per query, at every precision: a compact scan's answer is
// this scan's by its own contract.
func (e *Engine) exactBatch(qs []points.Vector, bs *batchScratch, out []Assignment, errs []error, st *ScanStats) {
	n, np := e.m.N(), len(bs.pending)
	bs.flat = bs.flat[:0]
	for _, qi := range bs.pending {
		bs.flat = append(bs.flat, qs[qi]...)
	}
	bs.accs = slices.Grow(bs.accs[:0], np)[:np]
	for i := range bs.accs {
		bs.accs[i].Reset(1)
	}
	st.Scanned += int64(n) * int64(np)
	kernels.TopKBatch(e.m.Data, e.m.Dim, bs.flat, 0, n, bs.accs)
	for i, qi := range bs.pending {
		best, best2 := bs.accs[i].Nearest()
		if best < 0 {
			errs[qi] = ErrNoFinite
			continue
		}
		out[qi] = e.finalize(qs[qi], best, best2, true)
	}
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
