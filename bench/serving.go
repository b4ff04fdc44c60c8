package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// servingShape is what distinguishes the three serving workloads' load.
type servingShape struct {
	perReq     int // points per request
	writeEvery int // every writeEvery-th request is a POST /ingest; 0 = reads only
	warm       int // warm-up requests
	perSeg     int // requests per segment
	segs       int // segments of the end-to-end run at refSeconds
	timingSegs int // untraced segments of the traced run, which reports the timings
	setUps     int // complete set-ups per end-to-end run; setup_s is the quiet-end one
}

const (
	oracleSamples   = 500
	readBackSamples = 100
	probeQueries    = 1000
	fleetShards     = 4
)

// Read-only workloads run many one-second segments of 1000 requests: 990
// reads is the fewest a p99 needs to leave ten samples beyond it, and short
// segments are what gives the quiet-end summary (see quiet) a quiet segment
// to find. A serve-mixed segment has to hold one whole compaction cycle, so
// it has few, long ones.
var (
	serveReadShape  = servingShape{perReq: 1, warm: 1000, perSeg: 1000, segs: 10, timingSegs: 8, setUps: 3}
	serveMixedShape = servingShape{perReq: 4, writeEvery: 10, warm: 500, perSeg: 1100, segs: 3, timingSegs: 2, setUps: 3}
	fleetReadShape  = servingShape{perReq: 1, warm: 500, perSeg: 1000, segs: 8, timingSegs: 6, setUps: 1}
)

// system is one built instance of a serving workload's system under test.
type system struct {
	mdl *model.Model
	ds  *points.Dataset
	dc  float64

	eng     *serve.Engine   // single-node engine (nil on the fleet)
	servers []*serve.Server // one, or one per shard
	store   *ingest.Store   // serve-mixed only
	router  *fleet.Router   // fleet-read only
	addr    string          // where the load goes

	modelBuild  time.Duration // buildServeModel time
	engineBuild time.Duration // NewEngine (or ingest.Open) time, summed over shards
	partition   time.Duration // fleet.Partition time
	shardRows   int           // rows summed over shard sub-models

	closers []func() error
}

func (y *system) onClose(f func() error) { y.closers = append(y.closers, f) }

// close stops everything the system started, last started first, and waits
// for it.
func (y *system) close() error {
	var errs []error
	for i := len(y.closers) - 1; i >= 0; i-- {
		errs = append(errs, y.closers[i]())
	}
	y.closers = nil
	return errors.Join(errs...)
}

func shutdown(srv interface {
	Shutdown(context.Context) error
}) func() error {
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// serving is one run of a serving workload: the system, the load generator
// and the result being filled.
type serving struct {
	cfg   runConfig
	shape servingShape
	tr    *tracer
	res   *result
	*system

	queries            [][]float64
	gen                *loadGen
	warm, segs, perSeg int
}

func newServing(cfg runConfig, shape servingShape) *serving {
	s := &serving{cfg: cfg, shape: shape, res: newResult()}
	if cfg.trace {
		s.tr = &tracer{}
		calibrate(s.res, s.tr)
	}
	s.warm = cfg.requests(shape.warm, 20)
	s.perSeg = cfg.requests(shape.perSeg, 40)
	s.segs = cfg.reps(shape.segs, 2)
	if cfg.trace {
		s.segs = cfg.reps(shape.timingSegs, 2)
	}
	return s
}

func (s *serving) close() error {
	if s.gen != nil {
		s.gen.close()
	}
	if s.system == nil {
		return nil
	}
	return s.system.close()
}

// setUp builds the system under test with build, shape.setUps times over
// (once in the traced run), tearing each instance down before the next, and
// keeps the last. It returns the quiet-end set-up time: data generation,
// model, engine and partition builds and server start, from process start
// for the first. Warm-up traffic is not set-up work and is not in it.
func (s *serving) setUp(build func(y *system, parent int) error) (time.Duration, error) {
	n := s.shape.setUps
	if s.cfg.trace {
		n = 1
	}
	var times []float64
	for i := 0; i < n; i++ {
		start := processStart
		if i > 0 {
			if err := s.system.close(); err != nil {
				return 0, err
			}
			s.system = nil
			runtime.GC()
			start = time.Now()
		}
		span := s.tr.begin("setup", -1, -1)
		y := &system{}
		err := s.buildModel(y, span)
		if err == nil {
			err = build(y, span)
		}
		s.tr.end(span)
		if err != nil {
			return 0, errors.Join(err, y.close())
		}
		s.system = y
		times = append(times, time.Since(start).Seconds())
	}
	setup := quiet(times, false)
	s.res.note("setup_s=%.4f (quiet end of %d set-ups %.3f s; warm-up traffic excluded)", setup, n, times)

	// One query point per point the run will send, so no query repeats.
	total := (s.warm + (s.segs+1)*s.perSeg + oracleSamples + probeQueries) * s.shape.perReq
	s.queries = queryStream(s.ds, s.dc, total, s.cfg.seed)
	s.gen = newLoadGen(s.addr, s.cfg.p, s.queries, s.shape.perReq, s.shape.writeEvery, nil)
	s.tr.in("warmup", -1, func() { s.gen.run(0, s.warm, nil, -1, nil, -1) })
	return time.Duration(setup * float64(time.Second)), nil
}

// buildModel generates the dataset and the model.
func (s *serving) buildModel(y *system, parent int) error {
	var err error
	y.modelBuild = s.tr.in("model.build", parent, func() { y.mdl, y.ds, y.dc, err = buildServeModel(s.cfg.rows(serveRows), s.cfg.seed) })
	return err
}

// startServer hosts one serve.Server for eng on a loopback port.
func (s *serving) startServer(y *system, cfg serve.Config, eng *serve.Engine) (*serve.Server, error) {
	cfg.Workers = s.cfg.p
	srv := serve.New(cfg)
	srv.UseEngine(eng)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	y.onClose(shutdown(srv))
	y.servers = append(y.servers, srv)
	return srv, nil
}

// counters is a snapshot of the serving counters the metrics are deltas of,
// summed over every server of the system.
type counters struct {
	points     int64 // query points answered (router's count on the fleet)
	candidates int64
	batches    int64
	batchPts   int64
	busyUS     int64
	shed       int64
	exact      int64
	fleetReqs  int64
	store      map[string]int64
	router     map[string]int64
}

func (s *serving) snap() counters {
	var c counters
	for _, srv := range s.servers {
		sc := srv.Counters()
		c.candidates += sc.Get(serve.CtrCandidates)
		c.batches += sc.Get(serve.CtrBatches)
		c.batchPts += sc.Get(serve.CtrPoints)
		c.busyUS += sc.Get(serve.CtrBusyUS)
		c.shed += sc.Get(serve.CtrShed)
		c.exact += sc.Get(serve.CtrExactScans)
		c.fleetReqs += sc.Get(serve.CtrFleetRequests)
	}
	c.points = c.batchPts
	if s.router != nil {
		c.router = s.router.Counters().Snapshot()
		c.points = c.router[fleet.CtrPoints]
	}
	if s.store != nil {
		c.store = s.store.Counters()
	}
	return c
}

// timed runs count segments of the fixed request count, starting at request
// index first, with a forced GC before each segment (outside its timer).
// hook, when non-nil, is started once per segment at the segment's middle
// request.
func (s *serving) timed(first, count int, keep func(int) bool, hook func()) []*segment {
	var segs []*segment
	for i := 0; i < count; i++ {
		runtime.GC()
		at := first + i*s.perSeg
		name := "segment"
		if s.gen.tr == nil {
			name = "segment.untraced"
		}
		span := s.tr.begin(name, -1, -1)
		cpu0 := cpuTime()
		sg := s.gen.run(at, s.perSeg, keep, at+s.perSeg/2-1, hook, span)
		sg.cpu = cpuTime() - cpu0
		s.tr.end(span)
		segs = append(segs, sg)
	}
	return segs
}

// pooled concatenates one latency list of every segment, in milliseconds.
func pooled(segs []*segment, pick func(*segment) []time.Duration) []float64 {
	var out []float64
	for _, sg := range segs {
		out = append(out, msOf(pick(sg))...)
	}
	return out
}

func readsOf(sg *segment) []time.Duration  { return sg.reads }
func writesOf(sg *segment) []time.Duration { return sg.writes }
func duringOf(sg *segment) []time.Duration { return sg.duringHook }

// segmentTimings summarises the segments' timings: each figure is computed
// per segment and reported at its quiet end.
func (s *serving) segmentTimings(segs []*segment) timings {
	qps := each(segs, (*segment).readQPS)
	p50 := each(segs, func(sg *segment) float64 { return median(msOf(sg.reads)) })
	p99 := each(segs, func(sg *segment) float64 { return quantile(msOf(sg.reads), 0.99) })
	cpu := each(segs, func(sg *segment) float64 { return ms(sg.cpu) / float64(s.perSeg) })
	reads := pooled(segs, readsOf)
	note := fmt.Sprintf("read_qps=%.1f (quiet end of %d segments; segment median %.1f; segments %.0f)\n"+
		"  read_p50_ms=%.4f (quiet end; pooled median %.4f over n=%d reads) read_p99_ms=%.4f (quiet end; segment median %.4f; %d reads per segment)\n"+
		"  cpu_ms_per_op counts the in-process load generator; op = request (%d per segment)",
		quiet(qps, true), len(segs), median(qps), qps,
		quiet(p50, false), median(reads), len(reads), quiet(p99, false), median(p99), len(segs[0].reads), s.perSeg)
	if writes := pooled(segs, writesOf); len(writes) > 0 {
		note += fmt.Sprintf("\n  write_p50_ms=%.4f write_p95_ms=%.4f (n=%d pooled)", median(writes), quantile(writes, 0.95), len(writes))
	}
	return timings{opsPerS: quiet(qps, true), p50MS: quiet(p50, false), p99MS: quiet(p99, false), cpuMS: quiet(cpu, false), note: note}
}

// endToEndMetrics fills the contract's metrics from the timed segments and
// prints the timings beside them.
func (s *serving) endToEndMetrics(setup time.Duration, segs []*segment, before, after counters, rssMB, quality float64) {
	res := s.res
	var wire int64
	for _, sg := range segs {
		wire += sg.bytes
	}
	res.set("setup_s", "s", setup.Seconds())
	res.set("peak_rss_mb", "MB", rssMB)
	res.set("rows_per_answer", "rows", float64(after.candidates-before.candidates)/float64(after.points-before.points))
	res.set("bytes_per_op", "bytes", float64(wire)/float64(len(segs)*s.perSeg))
	res.set("quality", "fraction", quality)
	s.segmentTimings(segs).print(res)
}

// countFailures adds the segments' requests and transport-level failures to
// the result.
func (s *serving) countFailures(segs []*segment) {
	for _, sg := range segs {
		s.res.attempted += s.perSeg
		s.res.failed += sg.failed
	}
}

// sampleEvery picks about oracleSamples of the timed read requests.
func sampleEvery(total int) func(int) bool {
	step := max(total/oracleSamples, 1)
	return func(i int) bool { return i%step == 0 }
}

// checkKept compares the answers kept during the timed phase with direct
// calls into ref: the pruned answer must match bit for bit (a mismatch is a
// failed operation), and quality is the share that also equals the exact
// full-scan answer.
func (s *serving) checkKept(segs []*segment, ref *serve.Engine) float64 {
	match, n := 0, 0
	for _, sg := range segs {
		for _, k := range sg.kept {
			q := s.gen.points(k.req)[0]
			direct, _, err := ref.Assign(q, false)
			s.res.check(err == nil && sameAnswer(k.got, direct), "request %d: served %+v, direct engine call %+v (err %v)", k.req, k.got, direct, err)
			exact, _, err := ref.Assign(q, true)
			if err == nil && k.got.Nearest == exact.Nearest && k.got.Dist == exact.Dist {
				match++
			}
			n++
		}
	}
	s.res.note("oracle: %d sampled answers checked against the direct engine call; %d equal the exact scan", n, match)
	if n == 0 {
		return 0
	}
	return float64(match) / float64(n)
}

// buildSingle is serve-read's system: one engine at f64 behind one server.
func (s *serving) buildSingle(y *system, parent int) error {
	var err error
	y.engineBuild = s.tr.in("serve.engine_build", parent, func() { y.eng, err = serve.NewEngine(y.mdl, serve.PrecF64) })
	if err != nil {
		return err
	}
	srv, err := s.startServer(y, serve.Config{}, y.eng)
	if err != nil {
		return err
	}
	y.addr = srv.Addr()
	return nil
}

func runServeRead(cfg runConfig) (res *result, err error) {
	s := newServing(cfg, serveReadShape)
	defer func() { err = errors.Join(err, s.close()) }()
	setup, err := s.setUp(s.buildSingle)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return s.tracedRun()
	}
	before := s.snap()
	segs := s.timed(s.warm, s.segs, sampleEvery(s.segs*s.perSeg), nil)
	after, rss := s.snap(), peakRSSMB()
	s.countFailures(segs)
	quality := s.checkKept(segs, s.eng)
	s.endToEndMetrics(setup, segs, before, after, rss, quality)
	return s.res, nil
}

// buildFleet is fleet-read's system: the model with compact sections split
// into shards, one q8 server per shard, and a router in front.
func (s *serving) buildFleet(y *system, parent int) error {
	s.tr.in("model.compact", parent, y.mdl.BuildCompact)
	var subs []*model.Model
	var mf *fleet.Manifest
	var err error
	y.partition = s.tr.in("fleet.partition", parent, func() { subs, mf, err = fleet.Partition(y.mdl, fleetShards, 0) })
	if err != nil {
		return err
	}
	addrs := make([][]string, fleetShards)
	for sh, sub := range subs {
		var eng *serve.Engine
		y.engineBuild += s.tr.in("serve.engine_build", parent, func() { eng, err = serve.NewEngine(sub, serve.PrecQ8) })
		if err != nil {
			return err
		}
		if eng.Precision() != serve.PrecQ8 {
			return fmt.Errorf("shard %d serves at %s, want q8", sh, eng.Precision())
		}
		id := sh
		srv, err := s.startServer(y, serve.Config{ShardID: &id}, eng)
		if err != nil {
			return err
		}
		addrs[sh] = []string{srv.Addr()}
		y.shardRows += sub.N()
	}
	y.router, err = fleet.NewRouter(fleet.RouterConfig{Manifest: mf, Shards: addrs})
	if err != nil {
		return err
	}
	if err := y.router.Start("127.0.0.1:0"); err != nil {
		return err
	}
	y.onClose(shutdown(y.router))
	y.addr = y.router.Addr()
	return nil
}

func runFleetRead(cfg runConfig) (res *result, err error) {
	s := newServing(cfg, fleetReadShape)
	defer func() { err = errors.Join(err, s.close()) }()
	setup, err := s.setUp(s.buildFleet)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return s.tracedRun()
	}
	before := s.snap()
	segs := s.timed(s.warm, s.segs, sampleEvery(s.segs*s.perSeg), nil)
	after, rss := s.snap(), peakRSSMB()
	s.countFailures(segs)
	// The reference is the unpartitioned model on one engine, built after
	// the timed phase so that it is in neither setup_s nor peak_rss_mb.
	ref, err := serve.NewEngine(s.mdl, serve.PrecF64)
	if err != nil {
		return nil, err
	}
	quality := s.checkKept(segs, ref)
	s.endToEndMetrics(setup, segs, before, after, rss, quality)
	pts := float64(after.points - before.points)
	s.res.note("fanout_mean=%.4f of %d shards (bound %d); replication factor %.3f",
		float64(after.router[fleet.CtrShardsPerQuery]-before.router[fleet.CtrShardsPerQuery])/pts,
		fleetShards, s.router.FanoutBound(), float64(s.shardRows)/float64(s.mdl.N()))
	return s.res, nil
}

// buildStore is serve-mixed's system: the model behind an ingest store in a
// fresh directory under the scratch directory (no fsync, manual compaction
// only), served by one server.
func (s *serving) buildStore(y *system, parent int) error {
	srv := serve.New(serve.Config{Workers: s.cfg.p})
	var err error
	y.engineBuild = s.tr.in("ingest.open", parent, func() {
		var dir string
		if dir, err = os.MkdirTemp(s.cfg.scratch, "ingest-"); err != nil {
			return
		}
		y.onClose(func() error { return os.RemoveAll(dir) })
		y.store, err = ingest.Open(ingest.Config{Dir: dir, Fsync: false, Interval: 0, OnSwap: srv.UseEngine},
			func() (*model.Model, error) { return y.mdl, nil })
	})
	if err != nil {
		return err
	}
	y.onClose(y.store.Close)
	srv.SetIngest(y.store)
	srv.UseEngine(y.store.Engine())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	// Closers run last-started-first: the server drains before the store
	// it answers from is closed.
	y.onClose(shutdown(srv))
	y.servers = append(y.servers, srv)
	y.addr = srv.Addr()
	return nil
}

// compactor runs Store.Compact as a segment hook and keeps its timings.
type compactor struct {
	store *ingest.Store
	took  []time.Duration
	err   error
}

// run is called from one hook goroutine at a time: a segment waits for its
// hook before it ends.
func (c *compactor) run() {
	start := time.Now()
	if _, err := c.store.Compact(); err != nil && c.err == nil {
		c.err = err
	}
	c.took = append(c.took, time.Since(start))
}

func runServeMixed(cfg runConfig) (res *result, err error) {
	s := newServing(cfg, serveMixedShape)
	defer func() { err = errors.Join(err, s.close()) }()
	setup, err := s.setUp(s.buildStore)
	if err != nil {
		return nil, err
	}
	initialRows := s.mdl.N()
	// One compaction per segment, started when the segment's middle
	// request is issued: every segment holds exactly one.
	comp := &compactor{store: s.store}
	if cfg.trace {
		return s.tracedMixed(comp)
	}
	before := s.snap()
	segs := s.timed(s.warm, s.segs, nil, comp.run)
	after, rss := s.snap(), peakRSSMB()
	if comp.err != nil {
		return nil, fmt.Errorf("compaction: %w", comp.err)
	}
	s.countFailures(segs)
	quality, err := s.checkStore(segs, initialRows)
	if err != nil {
		return nil, err
	}
	s.endToEndMetrics(setup, segs, before, after, rss, quality)
	s.res.note("compactions=%d median compact_s=%.4f read_p50_during_compact_ms=%.4f",
		len(comp.took), median(msOf(comp.took))/1e3, median(pooled(segs, duringOf)))
	return s.res, nil
}

// checkStore is serve-mixed's oracle, run after the timed phase against the
// store's final state: acknowledged IDs are unique, every acknowledged
// point is in the store, sampled ingested points read back at distance 0,
// and sampled reads over HTTP equal the store's own answer bit for bit.
// Quality is the share of those reads that equals the exact scan.
func (s *serving) checkStore(segs []*segment, initialRows int) (float64, error) {
	var acks []ack
	for _, sg := range segs {
		acks = append(acks, sg.acks...)
	}
	// Warm-up writes were acknowledged too, but their replies were not
	// kept; the store's own counter says how many points it acked in all.
	acked := int(s.store.Counters()[ingest.CtrPoints])
	seen := make(map[int32]bool, len(acks))
	dup := 0
	for _, a := range acks {
		if seen[a.id] {
			dup++
		}
		seen[a.id] = true
	}
	s.res.check(dup == 0, "%d acknowledged IDs were handed out twice", dup)
	info := s.store.Info()
	s.res.check(info.BaseN+info.DeltaPoints == initialRows+acked,
		"store holds %d base + %d delta rows, want %d initial + %d acknowledged", info.BaseN, info.DeltaPoints, initialRows, acked)

	sort.Slice(acks, func(i, j int) bool { return acks[i].id < acks[j].id })
	reader := newLoadGen(s.addr, 1, nil, 1, 0, nil)
	defer reader.close()
	step := max(len(acks)/readBackSamples, 1)
	back := 0
	for i := 0; i < len(acks); i += step {
		r, err := reader.do(-1, [][]float64{acks[i].q}, false, -1)
		s.res.check(err == nil && r.got.Dist == 0, "ingested point %d reads back at distance %v (err %v)", acks[i].id, r.got.Dist, err)
		back++
	}

	first := s.warm + s.segs*s.perSeg
	match := 0
	for i := 0; i < oracleSamples; i++ {
		q := s.gen.points(first + i)[0]
		r, err := reader.do(-1, [][]float64{q}, false, -1)
		if err != nil {
			return 0, err
		}
		got := r.got
		direct, errs, _ := s.store.AssignBatch([]points.Vector{q}, serve.BatchOpts{})
		s.res.check(errs[0] == nil && sameAnswer(got, direct[0]), "query %d: served %+v, direct store call %+v (err %v)", i, got, direct[0], errs[0])
		exact, errs, _ := s.store.AssignBatch([]points.Vector{q}, serve.BatchOpts{ExactOnly: true})
		if errs[0] == nil && got.Nearest == exact[0].Nearest && got.Dist == exact[0].Dist {
			match++
		}
	}
	s.res.note("oracle: %d acked points (IDs unique), %d read back at distance 0, %d reads checked against the store; %d equal the exact scan",
		acked, back, oracleSamples, match)
	return float64(match) / float64(oracleSamples), nil
}

// probeSet is the per-query timing of the direct layer probes, in
// microseconds, plus each query's candidate count.
type probeSet struct {
	probe, scan, engine, cands []float64
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// usSince is the time since start in microseconds.
func usSince(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e3 }

// directProbes calls into the layers below HTTP on sampled queries, one
// goroutine, one pass per layer so that each pass has the caches to itself
// the way the serving path does, and fills the serve.* and kernels.*
// per-layer metrics. eng is the engine the workload's reads are answered
// by (the unpartitioned q8 engine stands in for the fleet's shards).
func (s *serving) directProbes(parent int, eng *serve.Engine, qs [][]float64) *probeSet {
	res, mdl := s.res, eng.Model()
	dim, n := mdl.Dim, mdl.N()
	ps := &probeSet{}

	// LSH probe: the deduplicated candidate union of each query.
	rowsOf := make([][]int32, len(qs))
	var buf []int32
	s.tr.in("serve.probe", parent, func() {
		for i, q := range qs {
			start := time.Now()
			buf, _ = eng.CandidateRows(q, buf[:0])
			ps.probe = append(ps.probe, usSince(start))
			rowsOf[i] = append([]int32(nil), buf...)
			ps.cands = append(ps.cands, float64(len(buf)))
		}
	})
	totalRows := sum(ps.cands)
	res.set("serve.probe_us", "us", median(ps.probe))
	res.set("serve.candidates_per_query", "rows", totalRows/float64(len(qs)))
	res.set("serve.candidate_frac", "fraction", totalRows/float64(len(qs))/float64(n))

	// The scan kernels over each query's real candidate rows, at all
	// three precisions. The compact figures include what answering at
	// that precision costs: query conversion or LUT build, the compact
	// scan, and the exact re-rank of the shortlist.
	data32, q8, q8par := mdl.Data32, mdl.Q8Codes, mdl.Q8Params()
	if len(data32) != len(mdl.Data) {
		data32, _ = points.ToFloat32(mdl.Data)
	}
	if len(q8) != len(mdl.Data) {
		q8, q8par, _ = points.QuantizeQ8(mdl.Data, dim)
	}
	var maxAbs float64
	for _, v := range mdl.Data {
		maxAbs = max(maxAbs, max(v, -v))
	}
	var sl kernels.Shortlist
	var lut kernels.Q8LUT
	var rerank float64
	scan := func(name string, one func(q []float64, rows []int32)) []float64 {
		us := make([]float64, len(qs))
		s.tr.in(name, parent, func() {
			for i, q := range qs {
				start := time.Now()
				one(q, rowsOf[i])
				us[i] = usSince(start)
			}
		})
		return us
	}
	scans := map[serve.Precision][]float64{
		serve.PrecF64: scan("kernels.nn.f64", func(q []float64, rows []int32) { kernels.NNRows(mdl.Data, dim, q, rows) }),
		serve.PrecF32: scan("kernels.nn.f32", func(q []float64, rows []int32) {
			q32, qAbs := points.ToFloat32(q)
			sl.Reset(kernels.F32Bounds(dim, max(maxAbs, qAbs)))
			kernels.NNRows32(data32, dim, q32, rows, &sl)
			kernels.NNRows(mdl.Data, dim, q, sl.Finish())
		}),
	}
	if len(q8) == len(mdl.Data) {
		scans[serve.PrecQ8] = scan("kernels.nn.q8", func(q []float64, rows []int32) {
			kernels.BuildQ8LUT(q8par, q, &lut)
			sl.Reset(kernels.Q8Bounds(dim, q8par.ErrBound()))
			kernels.NNRowsQ8(q8, dim, &lut, rows, &sl)
			short := sl.Finish()
			kernels.NNRows(mdl.Data, dim, q, short)
			rerank += float64(len(short))
		})
	}
	res.set("kernels.nn_ns_per_row.f64", "ns", 1e3*sum(scans[serve.PrecF64])/max(totalRows, 1))
	res.set("kernels.nn_ns_per_row.f32", "ns", 1e3*sum(scans[serve.PrecF32])/max(totalRows, 1))
	res.set("kernels.nn_ns_per_row.q8", "ns", 1e3*sum(scans[serve.PrecQ8])/max(totalRows, 1))
	res.set("kernels.rerank_rows_per_query", "rows", rerank/float64(len(qs)))
	ps.scan = scans[eng.Precision()]

	// The multi-query tile loop: 8 queries over every stored row.
	const batch = 8
	flat := make([]float64, 0, batch*dim)
	for _, q := range qs[:min(batch, len(qs))] {
		flat = append(flat, q...)
	}
	nb := len(flat) / dim
	best, best2 := make([]int32, nb), make([]float64, nb)
	s.tr.in("kernels.nnbatch", parent, func() {
		d := timeQuiet(func() { kernels.NNBatch(mdl.Data, dim, flat, 0, n, best, best2) })
		res.set("kernels.nnbatch_ns_per_row", "ns", float64(d.Nanoseconds())/float64(nb*n))
	})

	// The engine end to end, one query per call, then the exact scan.
	s.tr.in("serve.engine", parent, func() {
		for _, q := range qs {
			start := time.Now()
			eng.AssignBatch([]points.Vector{q}, false)
			ps.engine = append(ps.engine, usSince(start))
		}
	})
	self := make([]float64, len(qs))
	for i := range qs {
		self[i] = ps.engine[i] - ps.probe[i] - ps.scan[i]
	}
	res.set("serve.engine_us", "us", median(ps.engine))
	res.set("serve.engine_self_us", "us", median(self))
	var exact []float64
	s.tr.in("serve.exact", parent, func() {
		for _, q := range qs[:max(len(qs)/10, 1)] {
			start := time.Now()
			eng.Assign(q, true) //nolint:errcheck // timing only; answers are checked by the oracle
			exact = append(exact, usSince(start))
		}
	})
	res.set("serve.exact_us", "us", median(exact))
	return ps
}

// oneClient replays qs against addr with a single closed-loop client and
// returns the latencies in microseconds.
func (s *serving) oneClient(name string, parent int, addr string, qs [][]float64) []float64 {
	g := newLoadGen(addr, 1, qs, 1, 0, s.tr)
	defer g.close()
	span := s.tr.begin(name, parent, -1)
	seg := g.run(0, len(qs), nil, -1, nil, span)
	s.tr.end(span)
	s.res.attempted += len(qs)
	s.res.failed += seg.failed
	return each(seg.reads, func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 })
}

// tracedSegments runs a few segments with harness spans off, which give the
// traced run's timings, and one with them on, and reports the
// counter-derived serve.* metrics of the traced one.
func (s *serving) tracedSegments(hook func()) (plain []*segment, traced *segment, before, after counters) {
	n := s.segs
	plain = s.timed(s.warm, n, nil, hook)
	s.gen.tr = s.tr
	before = s.snap()
	traced = s.timed(s.warm+n*s.perSeg, 1, nil, hook)[0]
	after = s.snap()
	s.gen.tr = nil
	s.countFailures(append(plain[:n:n], traced))

	res := s.res
	t := s.segmentTimings(plain)
	t.layer(res)
	res.set("bench.trace_overhead_frac", "fraction", (t.opsPerS-traced.readQPS())/t.opsPerS)
	res.set("serve.engine_build_s", "s", s.engineBuild.Seconds())
	res.set("serve.batch_size_mean", "points", float64(after.batchPts-before.batchPts)/float64(max(after.batches-before.batches, 1)))
	res.set("serve.busy_frac", "fraction", float64(after.busyUS-before.busyUS)/1e6/traced.wall.Seconds()/float64(len(s.servers)))
	res.set("serve.shed", "count", float64(after.shed-before.shed))
	res.set("serve.exact_scans", "count", float64(after.exact-before.exact))
	return plain, traced, before, after
}

// modelLayers reports the model artifact's build time, size and codec time.
func (s *serving) modelLayers(parent int) error {
	var data []byte
	var err error
	s.tr.in("model.encode", parent, func() { data, err = s.mdl.Encode() })
	if err != nil {
		return err
	}
	d := s.tr.in("model.decode", parent, func() { _, err = model.Decode(data) })
	if err != nil {
		return err
	}
	s.res.set("model.build_s", "s", s.modelBuild.Seconds())
	s.res.set("model.bytes", "bytes", float64(len(data)))
	s.res.set("model.decode_s", "s", d.Seconds())
	return nil
}

// attribution sets serve.http_overhead_us and prints how the layer terms
// add up to the 1-client latency.
func (s *serving) attribution(ps *probeSet, httpUS []float64, nnNS float64) {
	res := s.res
	httpMed := median(httpUS)
	overhead := httpMed - median(ps.engine)
	res.set("serve.http_overhead_us", "us", overhead)
	cands := sum(ps.cands) / float64(len(ps.cands))
	probe, self := res.metrics["serve.probe_us"].Value, res.metrics["serve.engine_self_us"].Value
	total := probe + cands*nnNS/1e3 + self + overhead
	res.note("attribution: probe %.1fus + %.0f rows x %.3fns = %.1fus + engine self %.1fus + http %.1fus = %.1fus vs 1-client median %.1fus (%.1f%%)",
		probe, cands, nnNS, cands*nnNS/1e3, self, overhead, total, httpMed, 100*total/httpMed)
}

// probeQueriesOf returns the sampled queries the probes replay: stream
// positions no load segment has used.
func (s *serving) probeQueriesOf() [][]float64 {
	first := (s.warm + (s.segs+1)*s.perSeg + oracleSamples) * s.shape.perReq
	return s.queries[first : first+s.cfg.requests(probeQueries, 100)]
}

// tracedRun is the traced run of the two read-only workloads.
func (s *serving) tracedRun() (*result, error) {
	res := s.res
	_, _, before, after := s.tracedSegments(nil)
	qs := s.probeQueriesOf()
	probes := s.tr.begin("probes", -1, -1)
	if err := s.modelLayers(probes); err != nil {
		return nil, err
	}

	if s.router == nil {
		ps := s.directProbes(probes, s.eng, qs)
		httpUS := s.oneClient("http.1client", probes, s.addr, qs)
		s.attribution(ps, httpUS, res.metrics["kernels.nn_ns_per_row.f64"].Value)
	} else {
		pts := float64(after.points - before.points)
		delta := func(name string) float64 { return float64(after.router[name] - before.router[name]) }
		res.set("fleet.partition_s", "s", s.partition.Seconds())
		res.set("fleet.replication_factor", "ratio", float64(s.shardRows)/float64(s.mdl.N()))
		res.set("fleet.fanout_bound", "shards", float64(s.router.FanoutBound()))
		res.set("fleet.fanout_mean", "shards", delta(fleet.CtrShardsPerQuery)/pts)
		res.set("fleet.shard_requests_per_query", "count", float64(after.fleetReqs-before.fleetReqs)/pts)
		res.set("fleet.shard_busy_us_per_query", "us", float64(after.busyUS-before.busyUS)/pts)
		res.set("fleet.hedges", "count", delta(fleet.CtrHedges))
		res.set("fleet.hedge_wins", "count", delta(fleet.CtrHedgeWins))
		res.set("fleet.retries", "count", delta(fleet.CtrRetries))
		res.set("fleet.fallback_broadcasts", "count", delta(fleet.CtrFallbackBroadcasts))

		// The hop's cost: the same queries, one client, through the router
		// and against one unpartitioned q8 server.
		single, err := serve.NewEngine(s.mdl, serve.PrecQ8)
		if err != nil {
			return nil, err
		}
		srv := serve.New(serve.Config{Workers: s.cfg.p})
		srv.UseEngine(single)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.onClose(shutdown(srv))
		ps := s.directProbes(probes, single, qs)
		routed := s.oneClient("http.1client.router", probes, s.addr, qs)
		direct := s.oneClient("http.1client.single", probes, srv.Addr(), qs)
		res.set("fleet.router_overhead_us", "us", median(routed)-median(direct))
		s.attribution(ps, direct, res.metrics["kernels.nn_ns_per_row.q8"].Value)
		res.note("1-client median: routed %.1fus, single q8 server %.1fus", median(routed), median(direct))
	}
	s.tr.end(probes)
	res.set("bench.failed_frac", "fraction", float64(res.failed)/float64(max(res.attempted, 1)))
	return res, finishTrace(s.cfg, res, s.tr)
}

// tracedMixed is serve-mixed's traced run.
func (s *serving) tracedMixed(comp *compactor) (*result, error) {
	res := s.res
	plain, traced, before, after := s.tracedSegments(comp.run)
	both := append(plain, traced)
	writes := pooled(both, writesOf)
	res.set("ingest.write_p50_ms", "ms", median(writes))
	res.set("ingest.write_p95_ms", "ms", quantile(writes, 0.95))
	res.set("ingest.read_p50_during_compact_ms", "ms", median(pooled(both, duringOf)))
	sd := func(name string) float64 { return float64(after.store[name] - before.store[name]) }
	res.set("ingest.wal_bytes_per_point", "bytes", sd(ingest.CtrWALBytes)/max(sd(ingest.CtrPoints), 1))
	res.set("ingest.delta_scanned_per_query", "rows", sd(ingest.CtrDeltaScanned)/float64(after.points-before.points))

	qs := s.probeQueriesOf()
	probes := s.tr.begin("probes", -1, -1)
	if err := s.modelLayers(probes); err != nil {
		return nil, err
	}
	ps := s.directProbes(probes, s.store.Engine(), qs)

	// The delta merge's cost on a read: the store against its own engine.
	var merged []float64
	s.tr.in("ingest.assign", probes, func() {
		for _, q := range qs {
			start := time.Now()
			s.store.AssignBatch([]points.Vector{q}, serve.BatchOpts{})
			merged = append(merged, usSince(start))
		}
	})
	res.set("ingest.read_merge_overhead_us", "us", median(merged)-median(ps.engine))
	httpUS := s.oneClient("http.1client", probes, s.addr, qs)
	s.attribution(ps, httpUS, res.metrics["kernels.nn_ns_per_row.f64"].Value)

	// The write path below HTTP: WAL append + placement + apply.
	var ingestErr error
	batch := qs[:min(len(qs), 500)]
	d := s.tr.in("ingest.write", probes, func() {
		for _, q := range batch {
			if _, err := s.store.IngestPoints([][]float64{q}); err != nil && ingestErr == nil {
				ingestErr = err
			}
		}
	})
	if ingestErr != nil {
		return nil, ingestErr
	}
	res.set("ingest.write_us_per_point", "us", float64(d.Nanoseconds())/1e3/float64(len(batch)))
	s.tr.in("ingest.compact", probes, comp.run)
	if comp.err != nil {
		return nil, fmt.Errorf("compaction: %w", comp.err)
	}
	res.set("ingest.compact_s", "s", median(msOf(comp.took))/1e3)
	res.set("ingest.compactions", "count", float64(len(comp.took)))
	s.tr.end(probes)
	res.set("bench.failed_frac", "fraction", float64(res.failed)/float64(max(res.attempted, 1)))
	return res, finishTrace(s.cfg, res, s.tr)
}
