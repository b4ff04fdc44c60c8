// Package tuning implements the parameter-selection machinery of Section V:
// the shuffle-cost and computation-cost models (Eq. 6–8), the unified
// time-cost objective (Eq. 9), and a recommender that, given a required
// expected accuracy A, searches candidate (M, π) pairs, solves the minimal
// width w for each (Eq. 5), estimates the partition-size term Σ N_k² from
// a sample, and returns the cheapest feasible configuration. The computation
// cost departs from Eq. 8 where the pipeline does: a pair that several
// layouts co-bucket is evaluated, and modeled, once.
//
// The paper's recommended operating ranges — M ∈ [10, 20], π ∈ [3, 10] —
// fall out of this model empirically (Figure 12); the recommender defaults
// to searching a superset of that grid.
package tuning

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// Cost is the modeled cost of one LSH-DDP configuration.
type Cost struct {
	M, Pi int
	W     float64
	// SumSq is the estimated Σ_k N_k² over the partitions of one layout.
	SumSq float64
	// ShuffleBytes is E[C_s] of Eq. 7: M·(|S| + Σ N_k²·e).
	ShuffleBytes float64
	// Distances is E[C_c], the distance work of the pipeline's one pair
	// pass. Eq. 8 has M·Σ N_k² for each of its two partitioned jobs, a pair
	// counted once per layout that co-buckets it; the ρ job evaluates such a
	// pair once (DESIGN.md "Pair ownership") and the δ job re-evaluates only
	// the few around points the ρ pass could not certify (DESIGN.md "δ̂ from
	// the ρ pass"), so this is the number of ordered pairs co-bucketed by at
	// least one of the M layouts: SumSq at M = 1, and growing by less with
	// every layout added. It models the distinct co-bucketed pairs, which is
	// an upper bound on the pairs the ρ job evaluates: the cutoff reducers
	// prune the owned pairs whose runs lie d_c apart (dp.lsh.pairs.pruned),
	// which the sample does not model.
	Distances float64
	// Time is the unified objective of Eq. 9: μ·ShuffleBytes + Distances.
	Time float64
	// Accuracy is the modeled expected accuracy at (w, π, M).
	Accuracy float64
}

// Model evaluates the Section V cost model for a configuration.
type Model struct {
	// N is the data set size; Dim its dimensionality.
	N, Dim int
	// Dc is the cutoff distance (fixes the accuracy term).
	Dc float64
	// EntryBytes is e of Eq. 6, the bytes per shuffled distance-matrix
	// entry (default 8).
	EntryBytes float64
	// Mu is μ of Eq. 9, the time ratio of shuffling one byte to computing
	// one distance (default 0.3, from calibrating the local engine).
	Mu float64
	// SampleSize bounds the sample used to estimate Σ N_k² (default 2000).
	SampleSize int
	// Seed drives sampling and the probe layout draw.
	Seed int64
}

func (m *Model) entryBytes() float64 {
	if m.EntryBytes > 0 {
		return m.EntryBytes
	}
	return 8
}

func (m *Model) mu() float64 {
	if m.Mu > 0 {
		return m.Mu
	}
	return 0.3
}

func (m *Model) sampleSize() int {
	if m.SampleSize > 0 {
		return m.SampleSize
	}
	return 2000
}

// pointBytes is the wire size of one point record.
func (m *Model) pointBytes() float64 { return float64(8 + 8*m.Dim) }

// Evaluate models a configuration against a sample of the data set, hashed
// by M probe layouts. The Σ N_k² term is measured on the first and the
// distinct co-bucketed pairs on all of them, both scaled quadratically (each
// partition's share of the sample scales linearly with N, so its pairs scale
// quadratically).
func (m *Model) Evaluate(ds *points.Dataset, mLayouts, pi int, w float64) (Cost, error) {
	if ds.N() == 0 {
		return Cost{}, fmt.Errorf("tuning: empty data set")
	}
	if mLayouts <= 0 || pi <= 0 || w <= 0 {
		return Cost{}, fmt.Errorf("tuning: bad configuration m=%d pi=%d w=%v", mLayouts, pi, w)
	}
	sample := samplePoints(ds, m.sampleSize(), m.Seed)
	counts, pairs := coBucketed(sample, ds.Dim(), mLayouts, pi, w, m.Seed+424243)
	scale := float64(m.N) / float64(len(sample))
	var sumSq float64
	for _, c := range counts {
		nk := float64(c) * scale
		sumSq += nk * nk
	}
	cost := Cost{
		M: mLayouts, Pi: pi, W: w,
		SumSq:    sumSq,
		Accuracy: lsh.ExpectedAccuracy(w, m.Dc, pi, mLayouts),
	}
	cost.ShuffleBytes = float64(mLayouts) * (float64(m.N)*m.pointBytes() + sumSq*m.entryBytes())
	cost.Distances = float64(2*pairs+int64(len(sample))) * scale * scale
	cost.Time = m.mu()*cost.ShuffleBytes + cost.Distances
	return cost, nil
}

// Recommend searches the candidate grid (defaults to M ∈ {2,5,10,20,30},
// π ∈ {1..12}) for the configuration with the smallest modeled time cost
// whose solved width meets accuracy A. Results are returned sorted by
// modeled time, cheapest first; the first entry is the recommendation.
func (m *Model) Recommend(ds *points.Dataset, accuracy float64, ms, pis []int) ([]Cost, error) {
	if len(ms) == 0 {
		ms = []int{2, 5, 10, 20, 30}
	}
	if len(pis) == 0 {
		pis = []int{1, 2, 3, 4, 5, 6, 8, 10, 12}
	}
	var out []Cost
	for _, M := range ms {
		for _, pi := range pis {
			w, err := lsh.SolveWidth(accuracy, m.Dc, pi, M)
			if err != nil {
				continue // infeasible combination
			}
			c, err := m.Evaluate(ds, M, pi, w)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tuning: no feasible configuration for accuracy %v", accuracy)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		if out[i].M != out[j].M {
			return out[i].M < out[j].M
		}
		return out[i].Pi < out[j].Pi
	})
	return out, nil
}

// coBucketed hashes the sample under m probe layouts of pi functions of
// width w drawn from seed. It returns the sample count of each partition of
// the first layout, in first-seen order, and the number of unordered pairs
// that share a partition in at least one layout — each counted, as the
// pipeline evaluates it, at the lowest such layout.
func coBucketed(sample []points.Point, dim, m, pi int, w float64, seed int64) (sizes []int, pairs int64) {
	probe := lsh.NewLayouts(dim, m, pi, w, seed)
	n := len(sample)
	ids := make(map[string]int32) // keys carry their layout: one id space
	var buckets [][]int32         // bucket id → sample rows
	var layout []int              // bucket id → its layout
	sig := make([]int32, m*n)     // sig[l·n+r]: row r's bucket under layout l
	var kb lsh.KeyBuf
	for r, p := range sample {
		probe.Hash(&kb, p.Pos)
		for l := 0; l < m; l++ {
			key := kb.Key(l)
			id, ok := ids[string(key)]
			if !ok {
				id = int32(len(buckets))
				ids[string(key)] = id
				buckets = append(buckets, nil)
				layout = append(layout, l)
			}
			buckets[id] = append(buckets[id], int32(r))
			sig[l*n+r] = id
		}
	}
	for id, rows := range buckets {
		own := layout[id]
		if own == 0 {
			sizes = append(sizes, len(rows))
		}
		for x, a := range rows {
		next:
			for _, b := range rows[x+1:] {
				for l := 0; l < own; l++ {
					if sig[l*n+int(a)] == sig[l*n+int(b)] {
						continue next
					}
				}
				pairs++
			}
		}
	}
	return sizes, pairs
}

// samplePoints draws up to k points without replacement.
func samplePoints(ds *points.Dataset, k int, seed int64) []points.Point {
	if ds.N() <= k {
		return ds.Points
	}
	rng := points.NewRand(seed + 99991)
	perm := rng.Perm(ds.N())
	out := make([]points.Point, k)
	for i := 0; i < k; i++ {
		out[i] = ds.Points[perm[i]]
	}
	return out
}

// BalanceStats summarizes partition-size skew for one (π, w) probe — used
// by the Figure 12 discussion (small M with large π skews the workload).
type BalanceStats struct {
	Partitions int
	MaxShare   float64 // largest partition's fraction of points
	CV         float64 // coefficient of variation of partition sizes
}

// Balance measures partition balance of one probe layout on a sample.
func (m *Model) Balance(ds *points.Dataset, pi int, w float64) (BalanceStats, error) {
	if pi <= 0 || w <= 0 {
		return BalanceStats{}, fmt.Errorf("tuning: bad probe pi=%d w=%v", pi, w)
	}
	sample := samplePoints(ds, m.sampleSize(), m.Seed)
	counts, _ := coBucketed(sample, ds.Dim(), 1, pi, w, m.Seed+848485)
	st := BalanceStats{Partitions: len(counts)}
	n := float64(len(sample))
	mean := n / float64(len(counts))
	var varsum float64
	for _, c := range counts {
		share := float64(c) / n
		if share > st.MaxShare {
			st.MaxShare = share
		}
		d := float64(c) - mean
		varsum += d * d
	}
	st.CV = math.Sqrt(varsum/float64(len(counts))) / mean
	return st, nil
}

// CalibrateMu measures μ — Eq. 9's ratio of per-byte shuffle time to
// per-distance computation time — on this machine, instead of relying on
// the default constant. It times a pure distance loop and a pure
// shuffle-only MapReduce job of known volume and returns their unit-cost
// ratio, clamped to a sane range.
func CalibrateMu(dim int, seed int64) float64 {
	if dim <= 0 {
		dim = 57
	}
	rng := points.NewRand(seed + 1234577)
	a := make(points.Vector, dim)
	b := make(points.Vector, dim)
	for i := 0; i < dim; i++ {
		a[i], b[i] = rng.Float64(), rng.Float64()
	}

	// Distance unit cost.
	const distIters = 2_000_000
	start := nowNanos()
	var sink float64
	for i := 0; i < distIters; i++ {
		sink += points.SqDist(a, b)
	}
	distNs := float64(nowNanos()-start) / distIters
	_ = sink

	// Shuffle unit cost: a pass-through job moving a known byte volume.
	payload := make([]byte, 1024)
	input := make([]mapreduce.Pair, 2048)
	for i := range input {
		input[i] = mapreduce.Pair{Key: "k", Value: payload}
	}
	job := &mapreduce.Job{
		Name: "calibrate-shuffle",
		Map: func(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			out.Emit(key, value)
			return nil
		},
		Reduce: func(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			out.Emit(key, []byte{byte(len(values))})
			return nil
		},
	}
	eng := &mapreduce.LocalEngine{Parallelism: 1}
	start = nowNanos()
	res, err := eng.Run(context.Background(), job, input)
	if err != nil {
		return 0.3 // fall back to the default on any failure
	}
	bytes := res.Counters.Get(mapreduce.CtrShuffleBytes)
	if bytes == 0 || distNs == 0 {
		return 0.3
	}
	shuffleNsPerByte := float64(nowNanos()-start) / float64(bytes)

	mu := shuffleNsPerByte / distNs
	if mu < 0.001 {
		mu = 0.001
	}
	if mu > 100 {
		mu = 100
	}
	return mu
}

// nowNanos isolates the clock for testability.
func nowNanos() int64 { return time.Now().UnixNano() }
