// Package core implements the paper's distributed Density Peaks algorithms
// on top of the internal/mapreduce framework:
//
//   - Basic-DDP (Section III): the exact baseline. A sampling MapReduce job
//     chooses the cutoff d_c, a blocked all-pairs job plus an aggregation
//     job compute exact ρ, a second blocked job plus aggregation compute
//     exact δ and upslope points, and a centralized step selects peaks and
//     assigns clusters.
//
//   - LSH-DDP (Section IV): the approximate contribution. Points are
//     partitioned under M locality-sensitive hash layouts (π p-stable
//     functions of width w each); local ρ̂ are computed per partition and
//     aggregated with max (Theorem 1); local δ̂/upslope are computed per
//     partition using the aggregated ρ̂ and aggregated with min (Theorem 2);
//     local absolute peaks get δ̂ = +∞, rectified in the centralized step
//     (Section IV-C). Two points that share a bucket usually share one in
//     several layouts; each such pair's distance is evaluated once, by the
//     lowest layout that holds it, and credited to the rest (paironce.go).
//     The ρ pass also keeps each point's nearest co-bucketed partners, which
//     decide δ̂ for all but a few points; only those go through the δ job.
//
// Both runners work on any mapreduce.Engine — the in-process LocalEngine or
// the distributed rpcmr cluster — and report the paper's cost metrics
// (wall time per job, shuffled bytes, distance computations) in Stats.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/decision"
	"repro/internal/dp"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/obs"
	"repro/internal/points"
)

// Common Conf keys shared by the jobs in this package. Everything a job
// needs travels in its Conf so the distributed engine can rebuild the job
// on a remote worker from (name, conf) alone.
const (
	confDc         = "ddp.dc"
	confSampleFrac = "ddp.dc.sample.frac"
	confPercentile = "ddp.dc.percentile"
	confBlocks     = "ddp.basic.blocks"
	confDim        = "ddp.dim"
	confM          = "ddp.lsh.m"
	confPi         = "ddp.lsh.pi"
	confW          = "ddp.lsh.w"
	confSeed       = "ddp.seed"
	confAggMean    = "ddp.lsh.aggregate.mean"
)

// Job names, used by the rpcmr job registry.
const (
	JobDcSample  = "ddp-dc-sample"
	JobBasicRho  = "basic-ddp-rho"
	JobBasicAgg  = "basic-ddp-rho-agg"
	JobBasicDel  = "basic-ddp-delta"
	JobBasicDAgg = "basic-ddp-delta-agg"
	JobLSHRho    = "lsh-ddp-rho"
	JobLSHRhoAgg = "lsh-ddp-rho-agg"
	JobLSHDel    = "lsh-ddp-delta"
	JobLSHDelAgg = "lsh-ddp-delta-agg"
)

// Stats aggregates the cost metrics the paper reports.
type Stats struct {
	// Wall is total elapsed time including the centralized step.
	Wall time.Duration
	// JobWall is the summed wall time of the MapReduce jobs only.
	JobWall time.Duration
	// Jobs holds per-job statistics in execution order.
	Jobs []mapreduce.JobStats
	// ShuffleBytes is the total intermediate data volume (Figure 10(b)).
	ShuffleBytes int64
	// DistanceComputations counts pairwise distance evaluations
	// (Figure 10(c)).
	DistanceComputations int64
	// Phases aggregates the trace spans of every job by phase (map /
	// combine / sort / shuffle / reduce): task counts, wall time,
	// records, and bytes — where the run spent its time.
	Phases obs.PhaseTotals
	// Dag holds this run's dag.* scheduler counter deltas (nodes run,
	// cache hits/misses, staged and collected bytes) — see the dag
	// package's Ctr* constants.
	Dag map[string]int64
	// Dc is the cutoff distance used (chosen or configured).
	Dc float64
	// W, Pi, M record the LSH parameters actually used (LSH-DDP only).
	W  float64
	Pi int
	M  int
}

// Result is the outcome of a distributed DP run: per-point quantities
// indexed by point ID, plus run statistics. Delta may contain +Inf for
// LSH-DDP local peaks until Graph().Rectify() is applied (Cluster does this
// automatically).
type Result struct {
	Rho     []float64
	Delta   []float64
	Upslope []int32
	Stats   Stats
}

// Graph wraps the result arrays as a decision graph. Delta is copied:
// Graph.Rectify rewrites infinite δ in place, and callers reasonably
// expect Result to stay untouched across Cluster calls.
func (r *Result) Graph() (*decision.Graph, error) {
	return decision.NewGraph(r.Rho, append([]float64(nil), r.Delta...), r.Upslope)
}

// PeakSelector picks density peaks on a (rectified) decision graph.
type PeakSelector func(*decision.Graph) []int32

// SelectTopK returns a selector choosing the k largest-γ points.
func SelectTopK(k int) PeakSelector {
	return func(g *decision.Graph) []int32 { return g.SelectTopK(k) }
}

// SelectBox returns a selector choosing the (ρ>rhoMin, δ>deltaMin) box.
func SelectBox(rhoMin, deltaMin float64) PeakSelector {
	return func(g *decision.Graph) []int32 { return g.SelectBox(rhoMin, deltaMin) }
}

// SelectOutliers returns a selector choosing γ outliers above
// mean+sigmas·std.
func SelectOutliers(sigmas float64) PeakSelector {
	return func(g *decision.Graph) []int32 { return g.SelectOutliers(sigmas) }
}

// Cluster performs the centralized step (Section III, Step 3): rectify
// infinite δ, select peaks with the given selector, and assign every point
// to a peak by following upslope chains. It returns the selected peak IDs
// and per-point cluster labels (indexes into peaks).
func (r *Result) Cluster(ds *points.Dataset, sel PeakSelector) (peaks []int32, labels []int32, err error) {
	g, err := r.Graph()
	if err != nil {
		return nil, nil, err
	}
	g.Rectify()
	peaks = sel(g)
	labels, err = g.Assign(ds, peaks)
	if err != nil {
		return nil, nil, err
	}
	return peaks, labels, nil
}

// Config carries the knobs shared by both distributed algorithms.
type Config struct {
	// Engine runs the MapReduce jobs; nil means a default LocalEngine.
	Engine mapreduce.Engine
	// NumReduces is the reduce-task count per job; <=0 lets the engine
	// decide.
	NumReduces int
	// Dc fixes the cutoff distance. When 0, a preprocessing sampling job
	// chooses it as the DcPercentile quantile of sampled pair distances
	// (Section III-A's rule of thumb).
	Dc float64
	// DcPercentile is the quantile for automatic d_c (default 0.02).
	DcPercentile float64
	// DcSamplePoints bounds the number of points the d_c job samples
	// (default 450, ≈100k pair distances at the single reducer).
	DcSamplePoints int
	// Seed drives every randomized choice (sampling, LSH draws).
	Seed int64
	// Kernel selects the density estimator (cutoff by default; the
	// Gaussian variant of the original DP paper is supported as an
	// extension — see kernel.go).
	Kernel dp.Kernel
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Trace, when non-nil, collects every job's structured trace; wire it
	// to obs.Trace.WriteJSONL / WriteTree for per-task phase timing.
	Trace *obs.Trace
	// Session, when non-nil, is a shared DAG session the pipeline
	// schedules onto: its node-result cache and staged datasets persist
	// across pipeline runs, so an unchanged sub-pipeline (the d_c job, the
	// ρ jobs when only δ parameters moved, a repeated run) is served from
	// cache. Engine is ignored when set — the session's engine is used. A
	// caller that wants a node-result cache or a bound on concurrent nodes
	// builds the session with those dag.Options and passes it here.
	Session *dag.Session
}

func (c *Config) engine() mapreduce.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return &mapreduce.LocalEngine{}
}

// DagSession resolves the session a pipeline schedules its graph onto:
// the shared c.Session when set, otherwise a fresh private session over
// c.Engine (no cache; node concurrency as the engine declares).
func (c *Config) DagSession() *dag.Session {
	if c.Session != nil {
		return c.Session
	}
	return dag.NewSession(c.engine(), dag.Options{Log: c.Log, Trace: c.Trace})
}

// DcPercentileOrDefault returns the effective d_c quantile (default 0.02).
func (c *Config) DcPercentileOrDefault() float64 {
	if c.DcPercentile > 0 {
		return c.DcPercentile
	}
	return 0.02
}

func (c *Config) samplePoints() int {
	if c.DcSamplePoints > 0 {
		return c.DcSamplePoints
	}
	return 450
}

// InputPairs encodes a dataset as the key-value input of the first job of
// every pipeline: one record per point, empty key, binary point value.
func InputPairs(ds *points.Dataset) []mapreduce.Pair {
	in := make([]mapreduce.Pair, ds.N())
	for i, p := range ds.Points {
		in[i] = mapreduce.Pair{Value: points.EncodePoint(p)}
	}
	return in
}

// RhoPointPairs encodes points annotated with their (approximate) density
// as input to the δ jobs.
func RhoPointPairs(ds *points.Dataset, rho []float64) []mapreduce.Pair {
	in := make([]mapreduce.Pair, ds.N())
	for i, p := range ds.Points {
		in[i] = mapreduce.Pair{Value: points.EncodeRhoPoint(points.RhoPoint{Point: p, Rho: rho[i]})}
	}
	return in
}

// ---- d_c preprocessing job (shared by Basic-DDP and LSH-DDP) ----

// DcSampleJob builds the preprocessing job: the map side samples points
// deterministically (seeded hash of the point ID) and routes them to a
// single reducer, which computes all pairwise distances of the sample and
// outputs the requested percentile — the MapReduce realization of the DP
// paper's d_c rule of thumb.
func DcSampleJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       JobDcSample,
		Conf:       conf,
		NumReduces: 1,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			frac := ctx.Conf.GetFloat(confSampleFrac, 1)
			seed := ctx.Conf.GetInt64(confSeed, 0)
			p, _, err := points.DecodePoint(value)
			if err != nil {
				return err
			}
			if sampleHash(p.ID, seed) < frac {
				out.Emit("dc", value)
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
			q := ctx.Conf.GetFloat(confPercentile, 0.02)
			pts := make([]points.Point, 0, len(values))
			for _, v := range values {
				p, _, err := points.DecodePoint(v)
				if err != nil {
					return err
				}
				pts = append(pts, p)
			}
			dists := make([]float64, 0, len(pts)*(len(pts)-1)/2)
			distCtr := ctx.Counters.Cell(mapreduce.CtrDistanceComputations)
			var nd int64
			for i := range pts {
				for j := i + 1; j < len(pts); j++ {
					dists = append(dists, points.Dist(pts[i].Pos, pts[j].Pos))
					nd++
				}
			}
			distCtr.Add(nd)
			if len(dists) == 0 {
				return fmt.Errorf("core: d_c sample produced no pairs (sample too small)")
			}
			sort.Float64s(dists)
			idx := int(q*float64(len(dists))) - 1
			if idx < 0 {
				idx = 0
			}
			out.Emit("dc", points.EncodeFloat64(dists[idx]))
			return nil
		},
	}
}

// ChooseDc runs the shared d_c preprocessing job as a one-node graph on s
// unless cfg.Dc pins a value: it samples at most cfg.DcSamplePoints
// points, computes all pairwise distances at a single reducer, and
// returns the configured quantile (Section III-A's rule of thumb). Every
// algorithm package (Basic-DDP, LSH-DDP, EDDPC) calls this with its own
// session so the job shows up in that pipeline's stats and trace — and,
// on a shared cached session, is computed once per (input, conf) across
// pipelines.
func ChooseDc(ctx context.Context, s *dag.Session, ds *points.Dataset, cfg *Config, input *dag.Dataset) (float64, error) {
	if cfg.Dc > 0 {
		return cfg.Dc, nil
	}
	frac := 1.0
	if n := ds.N(); n > cfg.samplePoints() {
		frac = float64(cfg.samplePoints()) / float64(n)
	}
	conf := mapreduce.Conf{}
	conf.SetFloat(confSampleFrac, frac)
	conf.SetFloat(confPercentile, cfg.DcPercentileOrDefault())
	conf.SetInt64(confSeed, cfg.Seed)
	g := dag.NewGraph("choose-dc")
	dcOut := g.Job(DcSampleJob(conf), input)
	outs, err := s.Run(ctx, g, dcOut)
	if err != nil {
		return 0, err
	}
	out := outs[0]
	if len(out) != 1 {
		return 0, fmt.Errorf("core: d_c job produced %d records, want 1", len(out))
	}
	dc := points.DecodeFloat64(out[0].Value)
	if dc <= 0 {
		return 0, fmt.Errorf("core: sampled d_c is %v; data set may be degenerate (all points identical)", dc)
	}
	return dc, nil
}

// sampleHash maps (id, seed) to a uniform [0,1) value for deterministic
// Bernoulli sampling in map tasks.
func sampleHash(id int32, seed int64) float64 {
	x := uint64(uint32(id))*0x9E3779B97F4A7C15 ^ uint64(seed)*0xBF58476D1CE4E5B9
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// CollectStats folds what the session recorded since mark — the pipeline's
// own jobs, their per-phase span aggregates plus the scheduler's per-node
// spans under obs.PhaseDag, and its dag.* counter deltas — into Stats. Take
// the mark with sess.Mark() before the pipeline's first Stage or Run; on a
// shared session it is what separates this pipeline's jobs from earlier
// ones.
func CollectStats(st *Stats, sess *dag.Session, mark dag.Mark, start time.Time) {
	l := sess.Since(mark)
	st.Jobs = l.Jobs
	st.JobWall, st.ShuffleBytes, st.DistanceComputations = 0, 0, 0
	for _, j := range l.Jobs {
		st.JobWall += j.Wall
		st.ShuffleBytes += j.Counters[mapreduce.CtrShuffleBytes]
		st.DistanceComputations += j.Counters[mapreduce.CtrDistanceComputations]
	}
	st.Phases = obs.Totals(append(l.JobTraces, l.Runs...))
	st.Dag = l.Counters
	st.Wall = time.Since(start)
}
