// Package knnjoin is the distributed kNN-join subsystem: R ⋉kNN S as a
// chain of MapReduce jobs. The LSH-bucketed candidate pass replicates the
// base side into its hash bucket under every layout (like the ρ job of
// LSH-DDP) and sends each query to one bucket only — its bucket in the
// layout that attains its guarantee radius (lsh.Layouts.GuaranteeRadius),
// the only one whose answer can be certified. Each bucket reducer computes
// its queries' exact top-k over the bucket's base rows, walking a
// median-split box tree over them so that most rows are ruled out by a box
// bound without a distance evaluation; a merge pass uses the guarantee
// radius to certify the answer or flag the query for the exact-fallback
// pass, which re-joins just the uncertified queries against all of S. The
// final result is bit-identical to a naive full join.
package knnjoin

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
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
)

// Job names (the distributed engine's registry keys).
const (
	JobCandidates = "knn-candidates"
	JobExact      = "knn-exact"
	JobMerge      = "knn-merge"
)

// lazyLayouts returns a job instance's layouts resolver: the first map call
// parses the LSH parameters out of the job Conf and fetches the process-wide
// copy of the layouts they draw; every later call — one per record — is a
// sync.Once fast path.
func lazyLayouts() func(mapreduce.Conf) *lsh.Layouts {
	var once sync.Once
	var l *lsh.Layouts
	return func(conf mapreduce.Conf) *lsh.Layouts {
		once.Do(func() {
			l = lsh.Cached(conf.GetInt(ConfDim, 0), conf.GetInt(ConfM, 1), conf.GetInt(ConfPi, 1),
				conf.GetFloat(ConfW, 1), conf.GetInt64(ConfSeed, 0))
		})
		return l
	}
}

// keyBufs pools the query-side map's hash scratch: it needs the projections
// behind the keys, not only the keys.
var keyBufs = sync.Pool{New: func() any { return new(lsh.KeyBuf) }}

// CandidatesJob is pass 1 of the bucketed join. The map side hashes both
// input sides under all M layouts: base (S) records replicate to their home
// bucket in every layout unchanged; a query (R) record is annotated with
// its guarantee radius and goes to one bucket, its own in the layout that
// attains the radius. The merge pass accepts a bucketed answer only when
// all of it lies strictly inside that radius, hence inside that bucket, so
// no other layout's bucket could have changed an accepted answer. Each
// bucket reducer computes the exact top-k of every query over the bucket's
// base rows and emits one partial list per query, keyed by query ID for
// the merge pass.
func CandidatesJob(conf mapreduce.Conf) *mapreduce.Job {
	lazy := lazyLayouts()
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
			layouts := lazy(ctx.Conf)
			if len(p.Pos) != layouts.Dim() {
				return fmt.Errorf("knnjoin: point %d has dim %d, the layouts hash dim %d", p.ID, len(p.Pos), layouts.Dim())
			}
			if value[0] == tagBase {
				layouts.EachKey(p.Pos, func(key string) { out.Emit(key, value) })
				return nil
			}
			// One projection pass yields both the keys and the margins the
			// guarantee radius is made of.
			kb := keyBufs.Get().(*lsh.KeyBuf)
			layouts.Hash(kb, p.Pos)
			g, layout := layouts.GuaranteeRadius(kb)
			out.Emit(string(kb.Key(layout)), encodeBucketQuery(g, p))
			keyBufs.Put(kb)
			return nil
		},
		Reduce: bucketReduce,
	}
}

// exactKeyPrefix starts every ExactJob reduce key; the rest is the
// partition number, zero-padded to three digits.
const exactKeyPrefix = "x|"

// lazyExactKeys returns a job instance's partition-key table: the first map
// call formats the n keys, every later call is a sync.Once fast path.
func lazyExactKeys() func(n int) []string {
	var once sync.Once
	var keys []string
	return func(n int) []string {
		once.Do(func() {
			keys = make([]string, n)
			for part := range keys {
				keys[part] = exactKeyPrefix + fmt.Sprintf("%03d", part)
			}
		})
		return keys
	}
}

// ExactJob is the fallback join: base records partition by ID, queries
// broadcast to every partition with an infinite guarantee radius, and each
// partition's bucketReduce sees a disjoint slice of all of S — so the
// merged result is the exact join. The driver also uses it directly as the
// naive-broadcast oracle.
func ExactJob(conf mapreduce.Conf) *mapreduce.Job {
	lazy := lazyExactKeys()
	return &mapreduce.Job{
		Name: JobExact,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			if len(value) == 0 {
				return fmt.Errorf("knnjoin: empty input record")
			}
			keys := lazy(max(ctx.NumReduces, 1))
			switch value[0] {
			case tagBase:
				if err := checkBase(value); err != nil {
					return err
				}
				out.Emit(keys[int(uint32(baseID(value)))%len(keys)], value)
			case tagQuery:
				p, rest, err := points.DecodePoint(value[1:])
				if err != nil {
					return err
				}
				if len(rest) != 0 {
					return fmt.Errorf("knnjoin: %d trailing bytes after query point", len(rest))
				}
				rec := encodeBucketQuery(math.Inf(1), p)
				for _, key := range keys {
					out.Emit(key, rec)
				}
			default:
				return fmt.Errorf("knnjoin: unknown input tag %q", value[0])
			}
			return nil
		},
		// Keys name their partition directly; parsing them back keeps each
		// base slice and its broadcast queries in the intended reducer.
		Partition: func(key string, numReduces int) int {
			digits, ok := strings.CutPrefix(key, exactKeyPrefix)
			part, err := strconv.Atoi(digits)
			if !ok || err != nil {
				return 0
			}
			return part % numReduces
		},
		Reduce: bucketReduce,
	}
}

// boxTrees pools the bucket reducers' box trees, like the matrix they are
// built from.
var boxTrees = sync.Pool{New: func() any { return new(kernels.BoxTree) }}

// bucketReduce computes the exact top-k of every query in one bucket over
// the bucket's base rows. It is shared by the candidate and exact jobs —
// the only difference between the passes is how records reached the bucket.
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
	if len(baseRecs) == 0 {
		// A bucket with no base rows still reports each query so the merge
		// pass sees its guarantee radius (and, on the exact pass over an
		// empty S, still produces a result record).
		for _, q := range queries {
			out.Emit(mapreduce.IDKey(q.p.ID), encodePartial(partialList{QID: q.p.ID, G: q.g}))
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

	k := ctx.Conf.GetInt(ConfK, 1)
	// One accumulator and one entry buffer serve every query in turn.
	var acc kernels.TopKAcc
	var entries []kernels.TopKEntry
	emit := func(q bucketQuery) {
		entries = acc.Append(entries[:0])
		ns := make([]Neighbor, len(entries))
		for j, e := range entries {
			ns[j] = Neighbor{ID: m.ID(int(e.Row)), D2: e.D2}
		}
		out.Emit(mapreduce.IDKey(q.p.ID), encodePartial(partialList{QID: q.p.ID, G: q.g, Entries: ns}))
	}
	tree := boxTrees.Get().(*kernels.BoxTree)
	defer boxTrees.Put(tree)
	tree.Build(m.Data(), dim)
	var nd, nb int64
	for _, q := range queries {
		acc.Reset(k)
		rows, boxes := kernels.TopKLeaves(tree, q.p.Pos, &acc)
		nd += int64(rows)
		nb += int64(boxes)
		emit(q)
	}
	ctx.Counters.Cell(CtrCandidates).Add(nd)
	ctx.Counters.Cell(CtrBoxChecks).Add(nb)
	ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
	return nil
}

// MergeJob is pass 2: fold each query's partial lists — one from its
// routed bucket on the bucketed pass, one per partition on the exact pass —
// into one result. Entries sort by (distance, base ID) and duplicates (the
// same base point met in several partials — identical exact distance, hence
// adjacent after the sort) collapse, so the merged order is exactly the
// naive oracle's. The guarantee radius certifies the answer: with c distinct
// candidates and verified k-th distance d_k, the result is exact iff
// c ≥ k and √d_k < g (every true neighbor strictly within g shares the
// query's bucket in the layout it was routed by), or g = +Inf (the exact
// pass — or an exact pass over an S smaller than k, where c < k is the
// correct full answer).
func MergeJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: JobMerge,
		Conf: conf,
		Map: func(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			out.Emit(key, value)
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			k := ctx.Conf.GetInt(ConfK, 1)
			var qid int32
			g := math.Inf(-1)
			var entries []Neighbor
			for i, v := range values {
				p, err := decodePartial(v)
				if err != nil {
					return err
				}
				if i == 0 {
					qid = p.QID
				} else if p.QID != qid {
					return fmt.Errorf("knnjoin: key %q mixes queries %d and %d", key, qid, p.QID)
				}
				if p.G > g {
					g = p.G
				}
				entries = append(entries, p.Entries...)
			}
			sort.Slice(entries, func(i, j int) bool {
				return entries[i].D2 < entries[j].D2 ||
					(entries[i].D2 == entries[j].D2 && entries[i].ID < entries[j].ID)
			})
			w := 0
			for i, e := range entries {
				if i > 0 && e.ID == entries[w-1].ID && e.D2 == entries[w-1].D2 {
					continue
				}
				entries[w] = e
				w++
			}
			entries = entries[:w]
			fallback := false
			if len(entries) < k {
				fallback = !math.IsInf(g, 1)
			} else {
				entries = entries[:k]
				fallback = !(math.Sqrt(entries[k-1].D2) < g)
			}
			if fallback {
				ctx.Counters.Cell(CtrFallbacks).Add(1)
			}
			out.Emit(key, encodeResult(resultRec{QID: qid, Fallback: fallback, Entries: entries}))
			return nil
		},
	}
}

// JobFactories returns the package's job registry for the distributed
// engine, mapping job names to Conf-parameterized constructors.
func JobFactories() map[string]func(mapreduce.Conf) *mapreduce.Job {
	return map[string]func(mapreduce.Conf) *mapreduce.Job{
		JobCandidates: CandidatesJob,
		JobExact:      ExactJob,
		JobMerge:      MergeJob,
	}
}
