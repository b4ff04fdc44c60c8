// Package knnjoin is the distributed kNN-join subsystem: R ⋉kNN S as a
// MapReduce DAG. The LSH-bucketed candidate pass replicates both sides into
// hash buckets (queries under every layout, like the ρ job of LSH-DDP) and
// computes each bucket's verified top-k with the top-k kernels; a merge
// pass folds the per-bucket partials and uses the query's guarantee radius
// (lsh.Layouts.GuaranteeRadius) to certify the answer or flag the query for
// the exact-fallback pass, which re-joins just the uncertified queries
// against all of S. The final result is bit-identical to a naive full join.
package knnjoin

import (
	"fmt"
	"math"
	"sort"
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
	// CtrCandidates counts candidate pairs scanned by the bucket reducers
	// (query × base-row products, before any pruning).
	CtrCandidates = "knn.candidates"
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

// idKey renders a point ID as a fixed-width sortable reduce key.
func idKey(id int32) string { return fmt.Sprintf("%09d", id) }

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
// buckets unchanged, query (R) records are annotated with their guarantee
// radius and replicate to the same buckets. Each bucket reducer computes
// the exact top-k of every query over the bucket's base rows and emits one
// partial list per query, keyed by query ID for the merge pass.
func CandidatesJob(conf mapreduce.Conf) *mapreduce.Job {
	lazy := lazyLayouts()
	return &mapreduce.Job{
		Name: JobCandidates,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			if len(value) == 0 {
				return fmt.Errorf("knnjoin: empty input record")
			}
			layouts := lazy(ctx.Conf)
			switch value[0] {
			case tagBase:
				p, rest, err := points.DecodePoint(value[1:])
				if err != nil {
					return err
				}
				if len(rest) != 0 {
					return fmt.Errorf("knnjoin: %d trailing bytes after base point", len(rest))
				}
				layouts.EachKey(p.Pos, func(key string) { out.Emit(key, value) })
			case tagQuery:
				p, rest, err := points.DecodePoint(value[1:])
				if err != nil {
					return err
				}
				if len(rest) != 0 {
					return fmt.Errorf("knnjoin: %d trailing bytes after query point", len(rest))
				}
				// One projection pass yields both the keys and the margins
				// the guarantee radius is made of.
				kb := keyBufs.Get().(*lsh.KeyBuf)
				layouts.Hash(kb, p.Pos)
				rec := encodeBucketQuery(layouts.GuaranteeRadius(kb), p)
				kb.EachKey(func(key string) { out.Emit(key, rec) })
				keyBufs.Put(kb)
			default:
				return fmt.Errorf("knnjoin: unknown input tag %q", value[0])
			}
			return nil
		},
		Reduce: bucketReduce,
	}
}

// ExactJob is the fallback join: base records partition by ID, queries
// broadcast to every partition with an infinite guarantee radius, and each
// partition's bucketReduce sees a disjoint slice of all of S — so the
// merged result is the exact join. The driver also uses it directly as the
// naive-broadcast oracle.
func ExactJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: JobExact,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			if len(value) == 0 {
				return fmt.Errorf("knnjoin: empty input record")
			}
			n := ctx.NumReduces
			if n < 1 {
				n = 1
			}
			switch value[0] {
			case tagBase:
				part := int(uint32(baseID(value))) % n
				out.Emit("x|"+fmt.Sprintf("%03d", part), value)
			case tagQuery:
				p, rest, err := points.DecodePoint(value[1:])
				if err != nil {
					return err
				}
				if len(rest) != 0 {
					return fmt.Errorf("knnjoin: %d trailing bytes after query point", len(rest))
				}
				rec := encodeBucketQuery(math.Inf(1), p)
				for part := 0; part < n; part++ {
					out.Emit("x|"+fmt.Sprintf("%03d", part), rec)
				}
			default:
				return fmt.Errorf("knnjoin: unknown input tag %q", value[0])
			}
			return nil
		},
		// Keys name their partition directly; parsing them back keeps each
		// base slice and its broadcast queries in the intended reducer.
		Partition: func(key string, numReduces int) int {
			var part int
			if _, err := fmt.Sscanf(key, "x|%d", &part); err != nil {
				return 0
			}
			return part % numReduces
		},
		Reduce: bucketReduce,
	}
}

// bucketReduce computes the exact top-k of every query in one bucket over
// the bucket's base rows. It is shared by the candidate and exact jobs —
// the only difference between the passes is how records reached the bucket.
//
// Determinism: base records are sorted by point ID before they are decoded
// into the matrix, so matrix row order — and with it the top-k kernels'
// lowest-row-index tie rule — is the (distance, ID) order of the naive
// oracle, insensitive to the engine's shuffle value order.
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
	sort.Slice(queries, func(i, j int) bool { return queries[i].p.ID < queries[j].p.ID })
	if len(baseRecs) == 0 {
		// A bucket with no base rows still reports each query so the merge
		// pass sees its guarantee radius (and, on the exact pass over an
		// empty S, still produces a result record).
		for _, q := range queries {
			out.Emit(idKey(q.p.ID), encodePartial(partialList{QID: q.p.ID, G: q.g}))
		}
		return nil
	}
	sort.Slice(baseRecs, func(i, j int) bool { return baseID(baseRecs[i]) < baseID(baseRecs[j]) })
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
	nq := len(queries)
	qs := make([]float64, nq*dim)
	for i, q := range queries {
		if len(q.p.Pos) != dim {
			return fmt.Errorf("knnjoin: query dim %d, base dim %d", len(q.p.Pos), dim)
		}
		copy(qs[i*dim:(i+1)*dim], q.p.Pos)
	}

	k := ctx.Conf.GetInt(ConfK, 1)
	accs := make([]kernels.TopKAcc, nq)
	nd := int64(nq) * int64(m.N())
	if ctx.Conf[kernels.ConfScanPrecision] == kernels.ScanF32 {
		c := points.GetMatrix32(m)
		defer points.PutMatrix32(c)
		qs32, qMaxAbs := points.ToFloat32(qs)
		maxAbs := c.MaxAbs()
		if qMaxAbs > maxAbs {
			maxAbs = qMaxAbs
		}
		bnd := kernels.F32Bounds(dim, maxAbs)
		sls := make([]kernels.TopKShortlist, nq)
		for i := range sls {
			sls[i].Reset(k, bnd)
		}
		kernels.TopKBatch32(c.Data(), dim, qs32, 0, m.N(), sls)
		var rechecks int64
		for i := range sls {
			rows := sls[i].Finish()
			rechecks += int64(len(rows))
			accs[i].Reset(k)
			kernels.TopKRows(m.Data(), dim, qs[i*dim:(i+1)*dim], rows, &accs[i])
		}
		ctx.Counters.Cell(mapreduce.CtrCompactEvals).Add(nd)
		ctx.Counters.Cell(mapreduce.CtrCompactRechecks).Add(rechecks)
	} else {
		for i := range accs {
			accs[i].Reset(k)
		}
		kernels.TopKBatch(m.Data(), dim, qs, 0, m.N(), accs)
	}
	ctx.Counters.Cell(CtrCandidates).Add(nd)
	ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)

	var entries []kernels.TopKEntry
	for i, q := range queries {
		entries = accs[i].Append(entries[:0])
		ns := make([]Neighbor, len(entries))
		for j, e := range entries {
			ns[j] = Neighbor{ID: m.ID(int(e.Row)), D2: e.D2}
		}
		out.Emit(idKey(q.p.ID), encodePartial(partialList{QID: q.p.ID, G: q.g, Entries: ns}))
	}
	return nil
}

// MergeJob is pass 2: fold each query's per-bucket partial lists into one
// result. Entries sort by (distance, base ID) and duplicates (the same base
// point met in several buckets — identical exact distance, hence adjacent
// after the sort) collapse, so the merged order is exactly the naive
// oracle's. The guarantee radius certifies the answer: with c distinct
// candidates and verified k-th distance d_k, the result is exact iff
// c ≥ k and √d_k < g (every true neighbor strictly within g shares some
// bucket with the query), or g = +Inf (the exact pass — or an exact pass
// over an S smaller than k, where c < k is the correct full answer).
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
