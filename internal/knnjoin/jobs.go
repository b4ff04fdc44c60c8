// Package knnjoin is the distributed kNN-join subsystem: R ⋉kNN S as a
// chain of MapReduce jobs. The LSH-bucketed candidates job sends each query
// to one bucket only — its bucket in the layout that attains its guarantee
// radius (lsh.Layouts.GuaranteeRadius), the only one whose answer can be
// certified — and a base point to those of its M hash buckets (one per
// layout, like the ρ job of LSH-DDP) where a routed query can use it: the
// driver ships, per routed bucket, the box around its queries' guarantee
// balls, and the map drops a base copy outside it. Each bucket reducer
// computes its queries' exact top-k over the bucket's base rows, walking a
// median-split box tree over them so that most rows are ruled out by a box
// bound without a distance evaluation, and uses the guarantee radius to
// certify each answer or flag the query for the exact-fallback pass. That
// pass is one job on the same reducer: it splits the uncertified queries
// into groups and sends each group the base points inside its queries'
// boxes — each box the query's k-th distance to a sample of S, which bounds
// its k-th distance in S — so every query meets every base row its list can
// hold in one group and its answer needs no merge. The final result is
// bit-identical to a naive full join.
package knnjoin

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// Conf keys of the kNN-join jobs. Workers rebuild the LSH layouts from
// these (seeded draws, like core's LSH-DDP jobs) instead of shipping hash
// functions.
const (
	// ConfK is the neighbor count k of the join.
	ConfK = "mr.knn.k"
	// ConfDim is the point dimensionality, needed to re-draw layouts.
	ConfDim = "mr.knn.dim"
	// ConfM is the number of independent LSH layouts.
	ConfM = "mr.knn.m"
	// ConfPi is the number of hash functions per layout.
	ConfPi = "mr.knn.pi"
	// ConfW is the LSH slot width.
	ConfW = "mr.knn.w"
	// ConfSeed is the layout draw seed.
	ConfSeed = "mr.knn.seed"
)

// Counters of the kNN-join jobs.
const (
	// CtrCandidates counts the (query, base row) distances the bucket
	// reducers evaluated: at most Σ queries × base rows over the buckets,
	// and in practice far fewer, since the box tree's walk skips the leaves
	// whose box lies beyond the query's current k-th distance unevaluated.
	CtrCandidates = "knn.candidates"
	// CtrBoxChecks counts the box bounds the bucket reducers' tree walks
	// computed, each one O(dim) — the work that stands in for the row
	// distances not evaluated.
	CtrBoxChecks = "knn.box.checks"
	// CtrFallbacks counts queries whose bucket result could not be
	// certified by the guarantee radius and were re-joined exactly.
	CtrFallbacks = "knn.exact.fallbacks"
	// CtrBaseDropped counts the base copies the candidates map did not
	// ship: of a base point's M buckets, those no routed query can use.
	CtrBaseDropped = "knn.base.dropped"
)

// confBoxes carries the candidates job's box table (encodeBoxes), which the
// driver builds from R (routeBoxes). It is not a knob.
const confBoxes = "knn.boxes"

// confExactBoxes carries the exact job's box table, keyed by fallback query
// (baseSample.radiusBoxes); a Conf without one sends every group all of S.
// It is not a knob.
const confExactBoxes = "knn.exact.boxes"

// confGroups carries the exact job's group count P, which the driver sets
// from the input sizes (exactJoin). It is not a knob.
const confGroups = "knn.groups"

// Job names (the distributed engine's registry keys).
const (
	JobCandidates = "knn-candidates"
	JobExact      = "knn-exact"
	// JobMerge names no job: the exact pass needs no merge. The constant
	// stays only because the benchmark harness reads the wall time of a job
	// of this name; the harness's next change drops it.
	JobMerge = "knn-merge"
)

// layoutsOf draws the layouts conf describes. Workers rebuild them from the
// job Conf instead of receiving hash functions: the draws are seeded, so
// every worker draws identical ones. Jobs resolve them once per instance
// through mapreduce.ConfOnce.
func layoutsOf(conf mapreduce.Conf) (*lsh.Layouts, error) {
	m, pi := conf.GetInt(ConfM, 1), conf.GetInt(ConfPi, 1)
	if m < 1 || pi < 1 {
		return nil, fmt.Errorf("knnjoin: %d layouts of %d functions, want at least 1 of 1", m, pi)
	}
	return lsh.NewLayouts(conf.GetInt(ConfDim, 0), m, pi, conf.GetFloat(ConfW, 1), conf.GetInt64(ConfSeed, 0)), nil
}

// keyBufs pools the candidates map's hash scratch: the query side needs the
// projections behind the keys, not only the keys.
var keyBufs = sync.Pool{New: func() any { return new(lsh.KeyBuf) }}

// boxTable is the base filter of both passes: a closed box per key, and a
// base point ships under a key only if the key has a box and the point lies
// in it (inBox). The candidates job keys it by bucket: for each bucket some
// query is routed to with a guarantee radius g > 0, the union over those
// queries q of [q_t − g − pad_t, q_t + g + pad_t] on every axis t, with
// pad_t = 2⁻³⁰·(|q_t| + g) (growBox). The exact job keys it by fallback
// query (queryKey), each box padded the same way around its query's sampled
// k-th distance (baseSample.radiusBoxes), and a base point goes to a group
// if a box of one of the group's queries holds it.
//
// Exactness: a base point the bucket's reducer puts strictly within g of a
// routed query — as the kernels compute the distance, every axis term
// included — lies within g of it on every axis up to rounding, which the pad
// absorbs many times over, so it is in the box. A certified list lies
// strictly inside g, so every certified list, ties included, reaches its
// reducer whole. A query the full bucket would not certify is not certified
// by a filtered one either: dropping rows only raises its k-th distance or
// leaves it fewer than k rows. So the lists and the fallback set are those
// of shipping every copy. The exact pass's argument is the same with "within
// the box's radius" for "strictly within g": a fallback query's whole list
// lies within its radius.
type boxTable struct {
	dim   int
	boxes map[string][]float64 // key → lo (dim values), then hi (dim values)
}

// routeBoxes hashes every query as the candidates map does and returns the
// box table of the buckets the queries are routed to. A query with g = 0
// adds no box: nothing lies strictly within 0, so it always falls back.
func routeBoxes(layouts *lsh.Layouts, R *points.Dataset) *boxTable {
	t := &boxTable{dim: layouts.Dim(), boxes: make(map[string][]float64)}
	var kb lsh.KeyBuf
	for _, q := range R.Points {
		layouts.Hash(&kb, q.Pos)
		g, layout := layouts.GuaranteeRadius(&kb)
		if !(g > 0) {
			continue
		}
		key := kb.Key(layout)
		box, ok := t.boxes[string(key)]
		if !ok {
			box = emptyBox(t.dim)
			t.boxes[string(key)] = box
		}
		growBox(box, q.Pos, g)
	}
	return t
}

// emptyBox returns a box (lo, then hi) that holds nothing: lo = +∞, hi = −∞.
func emptyBox(dim int) []float64 {
	box := make([]float64, 2*dim)
	for i := range dim {
		box[i], box[dim+i] = math.Inf(1), math.Inf(-1)
	}
	return box
}

// growBox widens box (lo, then hi) to hold q's padded ball of radius g:
// [q_t − g − pad_t, q_t + g + pad_t] on every axis t, with
// pad_t = 2⁻³⁰·(|q_t| + g).
func growBox(box []float64, q points.Vector, g float64) {
	dim := len(box) / 2
	lo, hi := box[:dim], box[dim:]
	for i, x := range q {
		pad := 0x1p-30 * (math.Abs(x) + g)
		lo[i] = min(lo[i], x-g-pad)
		hi[i] = max(hi[i], x+g+pad)
	}
}

// admits reports whether a base point at p ships under key: the key has a
// box and p lies in it.
func (t *boxTable) admits(key string, p points.Vector) bool {
	box, ok := t.boxes[key]
	return ok && inBox(box, p)
}

// inBox reports whether p lies in box (lo, then hi), bounds included. A
// non-finite coordinate passes its axis: the filter drops only what it can
// place.
func inBox(box []float64, p points.Vector) bool {
	dim := len(box) / 2
	lo, hi := box[:dim], box[dim:]
	for i, x := range p {
		if (x < lo[i] || x > hi[i]) && !math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// queryKey is the exact job's box-table key of query qid: its ID, 4 bytes
// little-endian.
func queryKey(qid int32) string {
	return string(binary.LittleEndian.AppendUint32(nil, uint32(qid)))
}

// boxesFromConf decodes the candidates job's box table.
func boxesFromConf(conf mapreduce.Conf) (*boxTable, error) {
	s, ok := conf[confBoxes]
	if !ok {
		return nil, fmt.Errorf("knnjoin: %s job has no box table", JobCandidates)
	}
	t, err := decodeBoxes(s)
	if err != nil {
		return nil, err
	}
	if dim := conf.GetInt(ConfDim, 0); t.dim != dim {
		return nil, fmt.Errorf("knnjoin: box table of dim %d for points of dim %d", t.dim, dim)
	}
	return t, nil
}

// CandidatesJob is the bucketed pass. The map side hashes both input sides
// under all M layouts. A query (R) record is annotated with its guarantee
// radius and goes to one bucket, its own in the layout that attains the
// radius; a base (S) record goes, unchanged, to those of its M buckets whose
// box it lies in (boxTable). Each bucket reducer computes the exact top-k of
// every query over the bucket's base rows and certifies it: an answer is
// accepted only when all of it lies strictly inside the radius, hence inside
// that bucket, so no other layout's bucket — and no dropped copy — could
// have changed an accepted answer. It emits one result per query, keyed by
// query ID.
func CandidatesJob(conf mapreduce.Conf) *mapreduce.Job {
	drawn := mapreduce.ConfOnce(layoutsOf)
	boxes := mapreduce.ConfOnce(boxesFromConf)
	return &mapreduce.Job{
		Name: JobCandidates,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			if len(value) == 0 {
				return fmt.Errorf("knnjoin: empty input record")
			}
			if value[0] != tagBase && value[0] != tagQuery {
				return fmt.Errorf("knnjoin: unknown input tag %q", value[0])
			}
			p, rest, err := points.DecodePoint(value[1:])
			if err != nil {
				return err
			}
			if len(rest) != 0 {
				return fmt.Errorf("knnjoin: %d trailing bytes after point %d", len(rest), p.ID)
			}
			layouts, err := drawn(ctx.Conf)
			if err != nil {
				return err
			}
			if len(p.Pos) != layouts.Dim() {
				return fmt.Errorf("knnjoin: point %d has dim %d, the layouts hash dim %d", p.ID, len(p.Pos), layouts.Dim())
			}
			table, err := boxes(ctx.Conf)
			if err != nil {
				return err
			}
			// One projection pass yields both the keys and the margins the
			// guarantee radius is made of.
			kb := keyBufs.Get().(*lsh.KeyBuf)
			defer keyBufs.Put(kb)
			layouts.Hash(kb, p.Pos)
			if value[0] == tagQuery {
				g, layout := layouts.GuaranteeRadius(kb)
				out.Emit(string(kb.Key(layout)), encodeBucketQuery(g, p))
				return nil
			}
			var dropped int64
			kb.EachKey(func(key string) {
				if table.admits(key, p.Pos) {
					out.Emit(key, value)
				} else {
					dropped++
				}
			})
			if dropped > 0 {
				ctx.Counters.Cell(CtrBaseDropped).Add(dropped)
			}
			return nil
		},
		Reduce: bucketReduce,
	}
}

// exactPlan is what the exact job's map reads from its Conf: the P group
// keys (confGroups, the group indexes in decimal) and, when the driver sent
// a box table (confExactBoxes), each group's boxes.
type exactPlan struct {
	keys   []string
	dim    int
	groups []groupBoxes // nil without a table
}

// exactPlanOf decodes the exact job's Conf. A table key must be a query ID
// (queryKey), and its box goes to the query's group, qid mod P; a bound
// must not be NaN, which no padded ball has.
func exactPlanOf(conf mapreduce.Conf) (*exactPlan, error) {
	n := conf.GetInt(confGroups, 0)
	if n < 1 {
		return nil, fmt.Errorf("knnjoin: %s job has %d groups, want at least 1", JobExact, n)
	}
	plan := &exactPlan{keys: make([]string, n)}
	for g := range plan.keys {
		plan.keys[g] = strconv.Itoa(g)
	}
	s, ok := conf[confExactBoxes]
	if !ok {
		return plan, nil
	}
	t, err := decodeBoxes(s)
	if err != nil {
		return nil, err
	}
	if dim := conf.GetInt(ConfDim, 0); t.dim != dim || dim < 1 {
		return nil, fmt.Errorf("knnjoin: box table of dim %d for points of dim %d", t.dim, dim)
	}
	plan.dim = t.dim
	boxes := make([][][]float64, n)
	for key, box := range t.boxes {
		if len(key) != 4 {
			return nil, fmt.Errorf("knnjoin: %s box table key %x is no query ID", JobExact, key)
		}
		if slices.ContainsFunc(box, math.IsNaN) {
			return nil, fmt.Errorf("knnjoin: %s box table: query %d has a NaN bound", JobExact, binary.LittleEndian.Uint32([]byte(key)))
		}
		g := binary.LittleEndian.Uint32([]byte(key)) % uint32(n)
		boxes[g] = append(boxes[g], box)
	}
	plan.groups = make([]groupBoxes, n)
	for g, bs := range boxes {
		plan.groups[g] = newGroupBoxes(bs)
	}
	return plan, nil
}

// groupBoxes is one exact-job group's boxes, indexed on axis 0 so that the
// map does not test every base point against every box (which doubles the
// exact job's time on the harness's 359 boxes; DESIGN.md "The radius
// rule"): sorted by their lower bound there, with reach[i] the largest
// upper bound among boxes 0..i.
type groupBoxes struct {
	boxes [][]float64
	reach []float64
}

func newGroupBoxes(boxes [][]float64) groupBoxes {
	slices.SortFunc(boxes, func(a, b []float64) int { return cmp.Compare(a[0], b[0]) })
	reach := make([]float64, len(boxes))
	for i, b := range boxes {
		reach[i] = b[len(b)/2]
		if i > 0 {
			reach[i] = max(reach[i], reach[i-1])
		}
	}
	return groupBoxes{boxes: boxes, reach: reach}
}

// holds reports whether one of the group's boxes holds p (inBox). For a
// finite p[0] it tests only the boxes whose axis-0 interval can hold it:
// those below the first lower bound above p[0], back to the last whose
// reach is at least p[0]. A non-finite p[0] passes axis 0, so it tests all.
func (g *groupBoxes) holds(p points.Vector) bool {
	x, end := p[0], len(g.boxes)
	finite := !math.IsInf(x, 0) && !math.IsNaN(x)
	if finite {
		end, _ = slices.BinarySearchFunc(g.boxes, x, func(b []float64, x float64) int {
			if b[0] <= x {
				return -1
			}
			return 1
		})
	}
	for i := end - 1; i >= 0; i-- {
		if finite && g.reach[i] < x {
			return false
		}
		if inBox(g.boxes[i], p) {
			return true
		}
	}
	return false
}

// ExactJob is the exact join: each query goes to one of P groups, group
// qid mod P, as a bucket query with g = +∞, and every base record to each
// group — or, when the driver sent a box table, to each group one of whose
// queries' boxes holds it (baseSample.radiusBoxes). Either way each group's
// bucket reducer holds every base row its queries' lists can hold and
// answers them whole. No list needs merging, and the distances a query's
// walk evaluates do not depend on the engine's partitions. The driver also
// runs it, with no table, as the oracle RunExact.
func ExactJob(conf mapreduce.Conf) *mapreduce.Job {
	plans := mapreduce.ConfOnce(exactPlanOf)
	return &mapreduce.Job{
		Name: JobExact,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			if len(value) == 0 {
				return fmt.Errorf("knnjoin: empty input record")
			}
			plan, err := plans(ctx.Conf)
			if err != nil {
				return err
			}
			keys := plan.keys
			switch value[0] {
			case tagBase:
				if err := checkBase(value); err != nil {
					return err
				}
				if plan.groups == nil {
					for _, key := range keys {
						out.Emit(key, value)
					}
					return nil
				}
				p, _, err := points.DecodePoint(value[1:])
				if err != nil {
					return err
				}
				if len(p.Pos) != plan.dim {
					return fmt.Errorf("knnjoin: base point %d has dim %d, the box table dim %d", p.ID, len(p.Pos), plan.dim)
				}
				var dropped int64
				for g, key := range keys {
					if plan.groups[g].holds(p.Pos) {
						out.Emit(key, value)
					} else {
						dropped++
					}
				}
				if dropped > 0 {
					ctx.Counters.Cell(CtrBaseDropped).Add(dropped)
				}
			case tagQuery:
				p, rest, err := points.DecodePoint(value[1:])
				if err != nil {
					return err
				}
				if len(rest) != 0 {
					return fmt.Errorf("knnjoin: %d trailing bytes after query point", len(rest))
				}
				out.Emit(keys[int(uint32(p.ID))%len(keys)], encodeBucketQuery(math.Inf(1), p))
			default:
				return fmt.Errorf("knnjoin: unknown input tag %q", value[0])
			}
			return nil
		},
		Reduce: bucketReduce,
	}
}

// boxTrees pools the bucket reducers' box trees, like the matrix they are
// built from.
var boxTrees = sync.Pool{New: func() any { return new(kernels.BoxTree) }}

// bucketReduce is the reducer of both passes: it computes the exact top-k
// of every query in one group over the group's base rows and emits each
// query's result. It certifies the answer by the query's radius g: a list
// holding k entries, the k-th strictly inside g, or any list when g = +∞
// (the exact pass, whose group holds all of S). A query it cannot certify
// is flagged for the exact pass with no entries and counted in
// CtrFallbacks.
//
// Determinism: base records are sorted by point ID before they are decoded
// into the matrix, so matrix row order — and with it the top-k kernels'
// lowest-row-index tie rule — is the (distance, ID) order of the naive
// oracle, insensitive to the engine's shuffle value order. The scan walks a
// median-split box tree over those rows (kernels.TopKLeaves), built from
// the matrix alone, so the number of distances it evaluates, and of box
// bounds it computes, is as deterministic as the lists.
func bucketReduce(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
	var baseRecs [][]byte
	type bucketQuery struct {
		g float64
		p points.Point
	}
	var queries []bucketQuery
	for _, v := range values {
		if len(v) == 0 {
			return fmt.Errorf("knnjoin: empty bucket record")
		}
		switch v[0] {
		case tagBase:
			baseRecs = append(baseRecs, v)
		case tagBucketQ:
			g, p, err := decodeBucketQuery(v)
			if err != nil {
				return err
			}
			queries = append(queries, bucketQuery{g: g, p: p})
		default:
			return fmt.Errorf("knnjoin: unknown bucket tag %q", v[0])
		}
	}
	if len(queries) == 0 {
		return nil
	}
	slices.SortFunc(queries, func(a, b bucketQuery) int { return cmp.Compare(a.p.ID, b.p.ID) })
	k := ctx.Conf.GetInt(ConfK, 1)
	emit := func(q bucketQuery, ns []Neighbor) {
		// Every neighbour strictly within g shares the query's bucket in
		// the layout it was routed by, and its box (boxTable).
		ok := math.IsInf(q.g, 1) || len(ns) == k && math.Sqrt(ns[k-1].D2) < q.g
		if !ok {
			ctx.Counters.Cell(CtrFallbacks).Add(1)
			ns = nil
		}
		out.Emit(mapreduce.IDKey(q.p.ID), encodeResult(resultRec{QID: q.p.ID, Fallback: !ok, Entries: ns}))
	}
	if len(baseRecs) == 0 {
		// A group with no base rows still answers each query: an empty
		// list, which only an infinite radius certifies.
		for _, q := range queries {
			emit(q, nil)
		}
		return nil
	}
	slices.SortFunc(baseRecs, func(a, b []byte) int { return cmp.Compare(baseID(a), baseID(b)) })
	views := make([][]byte, len(baseRecs))
	for i, v := range baseRecs {
		views[i] = v[1:]
	}
	m := points.GetMatrix()
	defer points.PutMatrix(m)
	if err := points.DecodePointsInto(m, views); err != nil {
		return err
	}
	dim := m.Dim()
	if dim < 1 {
		return fmt.Errorf("knnjoin: base points of dim %d", dim)
	}
	for _, q := range queries {
		if len(q.p.Pos) != dim {
			return fmt.Errorf("knnjoin: query dim %d, base dim %d", len(q.p.Pos), dim)
		}
	}

	// One accumulator and one entry buffer serve every query in turn.
	var acc kernels.TopKAcc
	var entries []kernels.TopKEntry
	tree := boxTrees.Get().(*kernels.BoxTree)
	defer boxTrees.Put(tree)
	tree.Build(m.Data(), dim)
	var nd, nb int64
	for _, q := range queries {
		acc.Reset(k)
		walk := kernels.TopKLeaves(tree, m.Data(), q.p.Pos, nil, nil, &acc)
		nd += int64(walk.Rows)
		nb += int64(walk.Boxes)
		entries = acc.Append(entries[:0])
		ns := make([]Neighbor, len(entries))
		for j, e := range entries {
			ns[j] = Neighbor{ID: m.ID(int(e.Row)), D2: e.D2}
		}
		emit(q, ns)
	}
	ctx.Counters.Cell(CtrCandidates).Add(nd)
	ctx.Counters.Cell(CtrBoxChecks).Add(nb)
	ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
	return nil
}

// JobFactories returns the package's job registry for the distributed
// engine, mapping job names to Conf-parameterized constructors.
func JobFactories() map[string]func(mapreduce.Conf) *mapreduce.Job {
	return map[string]func(mapreduce.Conf) *mapreduce.Job{
		JobCandidates: CandidatesJob,
		JobExact:      ExactJob,
	}
}
