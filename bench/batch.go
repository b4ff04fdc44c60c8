package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalmetrics"
	"repro/internal/kernels"
	"repro/internal/knnjoin"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
	"repro/internal/points"
)

// Batch workload geometry (full scale).
const (
	lshddpN        = 30000
	lshddpDim      = 8
	lshddpClusters = 16

	knnN       = 180000
	knnR       = 30000
	knnDim     = 4
	knnCenters = 64
	knnBox     = 400
	knnSpread  = 5
	knnK       = 10
	knnSamples = 500 // R points checked against the brute-force oracle
)

// rep is one timed pipeline run.
type rep struct {
	wall  time.Duration
	cpu   time.Duration
	stats core.Stats
}

// batchTimings summarises the timed reps. A call is one full pipeline run,
// so a rep is a segment of one call: its p50 and its p99 are both the rep's
// wall time. ops is the op count of one rep (input points or R points).
func batchTimings(reps []rep, ops int) timings {
	walls := each(reps, func(r rep) float64 { return ms(r.wall) })
	jobMS := quiet(walls, false)
	return timings{
		opsPerS: float64(ops) / (jobMS / 1e3),
		p50MS:   jobMS,
		p99MS:   jobMS,
		cpuMS:   quiet(each(reps, func(r rep) float64 { return ms(r.cpu) / float64(ops) }), false),
		note: fmt.Sprintf("job_s=%.4f (quiet end of %d timed reps %.0f ms; median %.4f)",
			jobMS/1e3, len(reps), walls, median(walls)/1e3),
	}
}

// batchMetrics fills the end-to-end metrics every batch workload shares and
// prints the timings beside them.
func batchMetrics(res *result, setup time.Duration, reps []rep, ops int, rssMB, quality float64) {
	st := reps[0].stats
	res.set("setup_s", "s", setup.Seconds())
	res.set("peak_rss_mb", "MB", rssMB)
	res.set("rows_per_answer", "rows", float64(st.DistanceComputations)/float64(ops))
	res.set("bytes_per_op", "bytes", float64(st.ShuffleBytes)/float64(ops))
	res.set("quality", "fraction", quality)
	batchTimings(reps, ops).print(res)
	res.note("distance_computations=%d shuffle_bytes=%d; setup_s runs from process start through the first, cold pipeline run",
		st.DistanceComputations, st.ShuffleBytes)
}

// jobWall sums the wall time of the jobs with the given name.
func jobWall(st *core.Stats, name string) time.Duration {
	var d time.Duration
	for _, j := range st.Jobs {
		if j.Name == name {
			d += j.Wall
		}
	}
	return d
}

func jobCounter(st *core.Stats, name string) int64 {
	var s int64
	for _, j := range st.Jobs {
		s += j.Counters[name]
	}
	return s
}

// engineLayers reports the MapReduce-engine and DAG metrics of one rep from
// its public stats, and attaches them to the rep's span as children: one
// span per job (wall) and, under it, one per phase (summed task time).
func engineLayers(res *result, tr *tracer, repSpan int, repStart float64, st *core.Stats, traces []obs.JobTrace, skewJob string) {
	res.set("mapreduce.map_s", "s", st.Phases[obs.PhaseMap].Wall.Seconds())
	res.set("mapreduce.combine_s", "s", st.Phases[obs.PhaseCombine].Wall.Seconds())
	res.set("mapreduce.sort_s", "s", st.Phases[obs.PhaseSort].Wall.Seconds())
	res.set("mapreduce.reduce_s", "s", st.Phases[obs.PhaseReduce].Wall.Seconds())
	res.set("mapreduce.map_records", "count", float64(jobCounter(st, mapreduce.CtrMapOutputRecords)))
	res.set("mapreduce.shuffle_records", "count", float64(jobCounter(st, mapreduce.CtrShuffleRecords)))
	res.set("mapreduce.shuffle_bytes", "bytes", float64(st.ShuffleBytes))
	res.set("dag.nodes", "count", float64(st.Dag[dag.CtrNodes]))
	res.set("dag.stage_bytes", "bytes", float64(st.Dag[dag.CtrStageBytes]))
	res.set("dag.sched_overhead_s", "s", (st.Wall - st.JobWall).Seconds())

	// The engine's traces can interleave scheduler records with the jobs',
	// so a job's trace is found by name, each trace used once.
	used := make([]bool, len(traces))
	at := repStart
	for _, j := range st.Jobs {
		js := tr.add("job:"+j.Name, repSpan, at, j.Wall)
		for i, jt := range traces {
			if used[i] || jt.Job != j.Name {
				continue
			}
			used[i] = true
			for ph, agg := range jt.PhaseTotals() {
				tr.add("phase:"+string(ph), js, at, agg.Wall)
			}
			break
		}
		at += j.Wall.Seconds()
	}
	// Skew of the job whose slowest reducer ends the pipeline.
	for _, jt := range traces {
		if jt.Job != skewJob {
			continue
		}
		dist := obs.DistOf(jt.Spans, obs.PhaseReduce)
		if total := jt.PhaseTotals()[obs.PhaseReduce]; total.Tasks > 0 && total.Wall > 0 {
			mean := total.Wall / time.Duration(total.Tasks)
			res.set("mapreduce.reduce_skew", "ratio", float64(dist.Max)/float64(mean))
		}
		break
	}
}

// keyStats times Layouts.Keys over pts and returns ns per point, the number
// of distinct partitions across all layouts, and the largest partition's
// key and size.
func keyStats(layouts *lsh.Layouts, pts []points.Point) (nsPerPoint float64, partitions int, maxKey string, maxSize int) {
	sizes := map[string]int{}
	start := time.Now()
	for _, p := range pts {
		for _, k := range layouts.Keys(p.Pos) {
			sizes[k]++
		}
	}
	nsPerPoint = float64(time.Since(start).Nanoseconds()) / float64(len(pts))
	keys := make([]string, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys) // ties on size resolve to the lowest key, not map order
	for _, k := range keys {
		if sizes[k] > maxSize {
			maxKey, maxSize = k, sizes[k]
		}
	}
	return nsPerPoint, len(sizes), maxKey, maxSize
}

// members returns the points of pts that fall in partition key.
func members(layouts *lsh.Layouts, pts []points.Point, key string) []points.Point {
	var out []points.Point
	for _, p := range pts {
		for _, k := range layouts.Keys(p.Pos) {
			if k == key {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// timeQuiet calls f at least three times and for at least probeMin in
// total, and returns the quiet-end duration of one call.
func timeQuiet(f func()) time.Duration {
	var calls []float64
	for total := time.Duration(0); len(calls) < 3 || total < probeMin; {
		start := time.Now()
		f()
		d := time.Since(start)
		total += d
		calls = append(calls, float64(d))
	}
	return time.Duration(quiet(calls, false))
}

const probeMin = 200 * time.Millisecond

func runBatchLSHDDP(cfg runConfig) (*result, error) {
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
		calibrate(res, tr)
	}
	ctx := context.Background()
	n := cfg.rows(lshddpN)
	reps := cfg.reps(3, 1)
	if cfg.trace {
		reps = cfg.reps(2, 1)
	}

	setupSpan := tr.begin("setup", -1, -1)
	var ds *points.Dataset
	tr.in("dataset.blobs", setupSpan, func() {
		ds = blobs("bench-lshddp", n, lshddpDim, lshddpClusters, serveBox, serveSpread, cfg.seed)
	})
	engine := &mapreduce.LocalEngine{Parallelism: cfg.p}
	truth := ds.Labels

	// One full pipeline: RunLSHDDP with the paper's defaults plus the
	// centralised peak selection and assignment.
	type outcome struct {
		rep
		labels  []int32
		result  *core.Result
		cluster time.Duration
		traces  []obs.JobTrace
	}
	pipeline := func(trace *obs.Trace) (*outcome, error) {
		start, cpu0 := time.Now(), cpuTime()
		r, err := core.RunLSHDDP(ctx, ds, core.LSHConfig{Config: core.Config{Seed: programSeed, Engine: engine, Trace: trace}})
		if err != nil {
			return nil, err
		}
		cstart := time.Now()
		_, labels, err := r.Cluster(ds, core.SelectTopK(lshddpClusters))
		if err != nil {
			return nil, err
		}
		o := &outcome{labels: labels, result: r, cluster: time.Since(cstart)}
		o.wall, o.cpu, o.stats = time.Since(start), cpuTime()-cpu0, r.Stats
		if trace != nil {
			o.traces = trace.Jobs()
		}
		return o, nil
	}

	var warm *outcome
	var err error
	tr.in("warmup.rep", setupSpan, func() { warm, err = pipeline(nil) })
	if err != nil {
		return nil, err
	}
	tr.end(setupSpan)
	setup := time.Since(processStart)
	warmDigest := digestInt32(warm.labels)

	var timed []rep
	var last *outcome
	for i := 0; i < reps; i++ {
		runtime.GC()
		o, err := pipeline(nil)
		if err != nil {
			return nil, err
		}
		timed = append(timed, o.rep)
		last = o
		// Oracle: every rep reproduces the warm-up rep's labels and work.
		res.check(digestInt32(o.labels) == warmDigest, "rep %d: labels digest differs from the warm-up rep", i)
		res.check(o.stats.DistanceComputations == warm.stats.DistanceComputations,
			"rep %d: %d distance computations, warm-up rep had %d", i, o.stats.DistanceComputations, warm.stats.DistanceComputations)
	}
	rss := peakRSSMB()
	res.attempted += reps

	ari, err := evalmetrics.ARI(truth, evalmetrics.IntLabels(last.labels))
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		batchMetrics(res, setup, timed, n, rss, ari)
		return res, nil
	}

	// Traced rep: the same pipeline with the engine's job traces collected
	// and harness spans around it.
	runtime.GC()
	repSpan := tr.begin("rep", -1, -1)
	repStart := time.Since(processStart).Seconds()
	traced, err := pipeline(&obs.Trace{})
	tr.end(repSpan)
	if err != nil {
		return nil, err
	}
	res.check(digestInt32(traced.labels) == warmDigest, "traced rep: labels digest differs")
	st := &traced.stats
	engineLayers(res, tr, repSpan, repStart, st, traced.traces, core.JobLSHRho)
	tr.add("core.cluster", repSpan, repStart+st.Wall.Seconds(), traced.cluster)
	res.set("core.dc_job_s", "s", jobWall(st, core.JobDcSample).Seconds())
	res.set("core.rho_job_s", "s", jobWall(st, core.JobLSHRho).Seconds())
	res.set("core.rho_agg_job_s", "s", jobWall(st, core.JobLSHRhoAgg).Seconds())
	res.set("core.delta_job_s", "s", jobWall(st, core.JobLSHDel).Seconds())
	res.set("core.delta_agg_job_s", "s", jobWall(st, core.JobLSHDelAgg).Seconds())
	res.set("core.cluster_s", "s", traced.cluster.Seconds())
	res.set("core.distance_computations", "count", float64(st.DistanceComputations))
	batchTimings(timed, n).layer(res)
	res.set("bench.trace_overhead_frac", "fraction", 1-quiet(each(timed, func(r rep) float64 { return r.wall.Seconds() }), false)/traced.wall.Seconds())
	accounted := st.Wall + traced.cluster
	res.note("attribution: jobs %.3fs + sched %.3fs + cluster %.3fs = %.3fs of rep wall %.3fs (%.1f%%)",
		st.JobWall.Seconds(), (st.Wall - st.JobWall).Seconds(), traced.cluster.Seconds(),
		accounted.Seconds(), traced.wall.Seconds(), 100*accounted.Seconds()/traced.wall.Seconds())

	// Direct layer probes on the same inputs, single goroutine.
	probes := tr.begin("probes", -1, -1)
	layouts := lsh.NewLayouts(lshddpDim, st.M, st.Pi, st.W, programSeed)
	var keyNS float64
	var parts, maxSize int
	var maxKey string
	tr.in("lsh.keys", probes, func() { keyNS, parts, maxKey, maxSize = keyStats(layouts, ds.Points) })
	res.set("lsh.keys_ns_per_point", "ns", keyNS)
	res.set("lsh.partitions", "count", float64(parts))
	res.set("lsh.max_partition_frac", "fraction", float64(maxSize)/float64(n))

	// The largest partition, as the reducers see it: encoded records
	// decoded into a pooled matrix, then the pair kernels over it.
	group := members(layouts, ds.Points, maxKey)
	plain := make([][]byte, len(group))
	withRho := make([][]byte, len(group))
	for i, p := range group {
		plain[i] = points.EncodePoint(p)
		withRho[i] = points.EncodeRhoPoint(points.RhoPoint{Point: p, Rho: traced.result.Rho[p.ID]})
	}
	m := points.GetMatrix()
	defer points.PutMatrix(m)
	var perr error
	tr.in("points.decode", probes, func() {
		d := timeQuiet(func() { perr = points.DecodePointsInto(m, plain) })
		res.set("points.decode_ns_per_point", "ns", float64(d.Nanoseconds())/float64(len(group)))
	})
	if perr != nil {
		return nil, perr
	}
	kern := kernels.Kernel{Dc2: st.Dc * st.Dc}
	tr.in("kernels.rho", probes, func() {
		var pairs int64
		d := timeQuiet(func() { pairs = kernels.RhoAccumulate(m, 0, m.N(), kern, make([]float64, m.N())) })
		res.set("kernels.rho_ns_per_pair", "ns", float64(d.Nanoseconds())/float64(pairs))
	})
	if err := points.DecodeRhoPointsInto(m, withRho); err != nil {
		return nil, err
	}
	tr.in("kernels.delta", probes, func() {
		var pairs int64
		acc := kernels.NewDeltaAcc(m.N(), false)
		d := timeQuiet(func() {
			acc.Reset(m.N(), false)
			pairs = kernels.DeltaArgmin(m, 0, m.N(), acc)
		})
		res.set("kernels.delta_ns_per_pair", "ns", float64(d.Nanoseconds())/float64(pairs))
	})

	// ρ̂ against exact ρ: one direct RhoAccumulate over the whole set.
	all := make([][]byte, n)
	for i, p := range ds.Points {
		all[i] = points.EncodePoint(p)
	}
	whole := points.GetMatrix()
	defer points.PutMatrix(whole)
	if err := points.DecodePointsInto(whole, all); err != nil {
		return nil, err
	}
	exact := make([]float64, n)
	tr.in("core.exact_rho", probes, func() { kernels.RhoAccumulate(whole, 0, n, kern, exact) })
	tau2, err := evalmetrics.Tau2(exact, traced.result.Rho)
	if err != nil {
		return nil, err
	}
	res.set("core.rho_tau2", "fraction", tau2)
	tr.end(probes)

	res.set("bench.failed_frac", "fraction", float64(res.failed)/float64(res.attempted))
	res.note("ari=%.6f rho_tau2=%.6f largest partition %q holds %d of %d points", ari, tau2, maxKey, maxSize, n)
	return res, finishTrace(cfg, res, tr)
}

// bruteKNN is the in-harness oracle: the k nearest points of S to q in
// (squared distance, lowest ID) order, by a full scan with an insertion-
// sorted best list.
func bruteKNN(S *points.Dataset, q points.Vector, k int) []knnjoin.Neighbor {
	before := func(a, b knnjoin.Neighbor) bool {
		if a.D2 != b.D2 {
			return a.D2 < b.D2
		}
		return a.ID < b.ID
	}
	best := make([]knnjoin.Neighbor, 0, k+1)
	for _, p := range S.Points {
		e := knnjoin.Neighbor{ID: p.ID, D2: points.SqDist(q, p.Pos)}
		if len(best) == k && !before(e, best[k-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return before(e, best[i]) })
		best = append(best, knnjoin.Neighbor{})
		copy(best[i+1:], best[i:])
		best[i] = e
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

func sameNeighbors(a, b []knnjoin.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func neighborsDigest(nb [][]knnjoin.Neighbor) uint64 {
	d := newDigest()
	for _, list := range nb {
		for _, e := range list {
			d.u64(uint64(uint32(e.ID)))
			d.f64(e.D2)
		}
	}
	return d.sum()
}

func runBatchKNNJoin(cfg runConfig) (res *result, err error) {
	res = newResult()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
		calibrate(res, tr)
	}
	ctx := context.Background()
	n, nr := cfg.rows(knnN), cfg.rows(knnR)
	reps := cfg.reps(3, 1)
	if cfg.trace {
		reps = cfg.reps(2, 1)
	}

	setupSpan := tr.begin("setup", -1, -1)
	var R, S *points.Dataset
	tr.in("dataset.blobs", setupSpan, func() {
		ds := blobs("bench-knn", n, knnDim, knnCenters, knnBox, knnSpread, cfg.seed)
		R, S, err = dataset.Split(ds, nr, cfg.seed+1)
	})
	if err != nil {
		return nil, err
	}

	// An in-process rpcmr cluster: master plus P workers over loopback TCP.
	var master *rpcmr.Master
	var workers []*rpcmr.Worker
	defer func() {
		for _, w := range workers {
			if cerr := w.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("close rpcmr worker: %w", cerr)
			}
		}
		if master != nil {
			if cerr := master.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("close rpcmr master: %w", cerr)
			}
		}
	}()
	tr.in("rpcmr.start", setupSpan, func() {
		rpcmr.RegisterJobs(knnjoin.JobFactories())
		if master, err = rpcmr.NewMaster("127.0.0.1:0"); err != nil {
			return
		}
		for i := 0; i < cfg.p; i++ {
			var w *rpcmr.Worker
			if w, err = rpcmr.StartWorker(master.Addr(), "127.0.0.1:0"); err != nil {
				return
			}
			workers = append(workers, w)
		}
		err = master.WaitWorkers(cfg.p, 10*time.Second)
	})
	if err != nil {
		return nil, err
	}

	type outcome struct {
		rep
		result *knnjoin.Result
		traces []obs.JobTrace
	}
	join := func() (*outcome, error) {
		mark := len(master.Traces())
		start, cpu0 := time.Now(), cpuTime()
		// A fresh session per rep: nothing is served from a node cache.
		sess := dag.NewSession(master, dag.Options{})
		r, err := knnjoin.Run(ctx, sess, R, S, knnK, knnjoin.Config{Accuracy: 0.95, Seed: programSeed})
		if err != nil {
			return nil, err
		}
		o := &outcome{result: r, traces: master.Traces()[mark:]}
		o.wall, o.cpu, o.stats = time.Since(start), cpuTime()-cpu0, r.Stats
		return o, nil
	}

	var warm *outcome
	tr.in("warmup.rep", setupSpan, func() { warm, err = join() })
	if err != nil {
		return nil, err
	}
	tr.end(setupSpan)
	setup := time.Since(processStart)
	warmDigest := neighborsDigest(warm.result.Neighbors)

	var timed []rep
	for i := 0; i < reps; i++ {
		runtime.GC()
		o, err := join()
		if err != nil {
			return nil, err
		}
		timed = append(timed, o.rep)
		res.check(neighborsDigest(o.result.Neighbors) == warmDigest, "rep %d: neighbour lists differ from the warm-up rep", i)
		res.check(o.stats.DistanceComputations == warm.stats.DistanceComputations,
			"rep %d: %d distance computations, warm-up rep had %d", i, o.stats.DistanceComputations, warm.stats.DistanceComputations)
	}
	rss := peakRSSMB()
	res.attempted += reps

	// Oracle: sampled R points against brute force, order included.
	samples := min(knnSamples, nr)
	match := 0
	rng := points.NewRand(cfg.seed + 31)
	for _, qi := range rng.Perm(nr)[:samples] {
		ok := sameNeighbors(warm.result.Neighbors[qi], bruteKNN(S, R.Points[qi].Pos, knnK))
		res.check(ok, "R point %d: join result differs from brute-force %d-NN", qi, knnK)
		if ok {
			match++
		}
	}
	quality := float64(match) / float64(samples)
	if !cfg.trace {
		batchMetrics(res, setup, timed, nr, rss, quality)
		res.note("fallbacks=%d of %d R points; %d sampled lists equal brute force", warm.result.Fallbacks, nr, match)
		return res, nil
	}

	runtime.GC()
	repSpan := tr.begin("rep", -1, -1)
	repStart := time.Since(processStart).Seconds()
	traced, err := join()
	tr.end(repSpan)
	if err != nil {
		return nil, err
	}
	st := &traced.stats
	engineLayers(res, tr, repSpan, repStart, st, traced.traces, knnjoin.JobCandidates)
	fetch := st.Phases[obs.PhaseFetch]
	res.set("rpcmr.fetch_s", "s", fetch.Wall.Seconds())
	res.set("rpcmr.fetch_bytes", "bytes", float64(jobCounter(st, mapreduce.CtrShuffleWireBytes)))
	res.set("rpcmr.wire_bytes", "bytes", float64(jobCounter(st, mapreduce.CtrShuffleWireBytesCompressed)))
	// Map tasks executed beyond the jobs' map counts are re-executions
	// after a failed fetch.
	extra := 0
	hist := master.History()
	for i, jt := range traced.traces {
		extra += jt.PhaseTotals()[obs.PhaseMap].Tasks - hist[len(hist)-len(traced.traces)+i].Maps
	}
	res.set("rpcmr.failed_maps", "count", float64(max(extra, 0)))
	res.set("knnjoin.candidates_job_s", "s", jobWall(st, knnjoin.JobCandidates).Seconds())
	res.set("knnjoin.merge_job_s", "s", jobWall(st, knnjoin.JobMerge).Seconds())
	res.set("knnjoin.exact_job_s", "s", jobWall(st, knnjoin.JobExact).Seconds())
	res.set("knnjoin.candidates", "count", float64(jobCounter(st, knnjoin.CtrCandidates)))
	res.set("knnjoin.fallbacks", "count", float64(traced.result.Fallbacks))
	res.set("knnjoin.certified_frac", "fraction", 1-float64(traced.result.Fallbacks)/float64(nr))
	res.set("core.distance_computations", "count", float64(st.DistanceComputations))
	batchTimings(timed, nr).layer(res)
	res.set("bench.trace_overhead_frac", "fraction", 1-quiet(each(timed, func(r rep) float64 { return r.wall.Seconds() }), false)/traced.wall.Seconds())
	res.note("attribution: jobs %.3fs + driver-side (width estimate, staging, decode) %.3fs = %.3fs of rep wall %.3fs",
		st.JobWall.Seconds(), (st.Wall - st.JobWall).Seconds(), st.Wall.Seconds(), traced.wall.Seconds())

	probes := tr.begin("probes", -1, -1)
	layouts := lsh.NewLayouts(knnDim, st.M, st.Pi, st.W, programSeed)
	var keyNS float64
	var parts, maxSize int
	var maxKey string
	tr.in("lsh.keys", probes, func() { keyNS, parts, maxKey, maxSize = keyStats(layouts, S.Points) })
	res.set("lsh.keys_ns_per_point", "ns", keyNS)
	res.set("lsh.partitions", "count", float64(parts))
	res.set("lsh.max_partition_frac", "fraction", float64(maxSize)/float64(S.N()))

	// One bucket as the candidates reducer sees it: the largest S bucket
	// decoded into a matrix, 64 R queries through TopKBatch.
	group := members(layouts, S.Points, maxKey)
	enc := make([][]byte, len(group))
	for i, p := range group {
		enc[i] = points.EncodePoint(p)
	}
	m := points.GetMatrix()
	defer points.PutMatrix(m)
	var perr error
	tr.in("points.decode", probes, func() {
		d := timeQuiet(func() { perr = points.DecodePointsInto(m, enc) })
		res.set("points.decode_ns_per_point", "ns", float64(d.Nanoseconds())/float64(len(group)))
	})
	if perr != nil {
		return nil, perr
	}
	const batch = 64
	nq := min(batch, nr)
	qs := make([]float64, 0, nq*knnDim)
	for _, p := range R.Points[:nq] {
		qs = append(qs, p.Pos...)
	}
	accs := make([]kernels.TopKAcc, nq)
	tr.in("kernels.topk", probes, func() {
		d := timeQuiet(func() {
			for i := range accs {
				accs[i].Reset(knnK)
			}
			kernels.TopKBatch(m.Data(), knnDim, qs, 0, m.N(), accs)
		})
		res.set("kernels.topk_ns_per_pair", "ns", float64(d.Nanoseconds())/float64(nq*m.N()))
	})
	tr.end(probes)

	res.set("bench.failed_frac", "fraction", float64(res.failed)/float64(res.attempted))
	return res, finishTrace(cfg, res, tr)
}

// calibrate runs a fixed arithmetic loop and a 64 MB streaming sum at the
// start of the traced run, so a reader can see when the host itself
// drifted. It never runs in the timed run, where it would pad setup_s and
// peak_rss_mb.
func calibrate(res *result, tr *tracer) {
	span := tr.begin("bench.calibrate", -1, -1)
	defer tr.end(span)
	start := time.Now()
	x := 1.0
	for i := 0; i < 120_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	compute := time.Since(start)
	buf := make([]float64, 8<<20) // 64 MB
	for i := range buf {
		buf[i] = float64(i)
	}
	start = time.Now()
	var sum float64
	for pass := 0; pass < 8; pass++ {
		for _, v := range buf {
			sum += v
		}
	}
	stream := time.Since(start)
	if math.IsNaN(x + sum) {
		panic("calibration loop produced NaN")
	}
	res.set("bench.calib_compute_ms", "ms", ms(compute))
	res.set("bench.calib_stream_ms", "ms", ms(stream)/8)
}

// finishTrace writes the spans and prints the per-name self-time rollup.
func finishTrace(cfg runConfig, res *result, tr *tracer) error {
	for _, st := range tr.selfTimes() {
		if st.Total >= 0.001 {
			res.note("span %-24s n=%-6d total=%9.4fs self=%9.4fs", st.Name, st.Count, st.Total, st.Self)
		}
	}
	path := spanFile(cfg)
	if err := tr.writeJSONL(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.note("spans written to %s", path)
	return nil
}
