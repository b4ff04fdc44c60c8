package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/points"
)

// Counter names of the serving layer, reported by /statsz (and clusterd's
// shutdown dump) next to the familiar mr.* / dfs.* families.
const (
	// CtrRequests counts admitted /assign requests.
	CtrRequests = "serve.requests"
	// CtrPoints counts query points across admitted requests.
	CtrPoints = "serve.points"
	// CtrShed counts requests rejected with 429 because the admission
	// queue was full — the load-shedding signal.
	CtrShed = "serve.shed"
	// CtrBatches counts kernel batches (one per batcher flush).
	CtrBatches = "serve.batches"
	// CtrExactScans counts queries answered by the exact full-scan path.
	CtrExactScans = "serve.exact.scans"
	// CtrCandidates counts stored rows whose distance to a query was
	// evaluated: the rows the bucket sweeps did not prune, plus every row of
	// each exact scan. Divide by CtrPoints for the rows one answer costs.
	CtrCandidates = "serve.candidates"
	// CtrCertified counts queries answered from a single bucket, the nearest
	// row there lying strictly inside the query's LSH guarantee radius.
	// Always zero on a fleet shard (the router owns that decision).
	CtrCertified = "serve.certified"
	// CtrRerankRows counts shortlist rows re-ranked in exact float64 after
	// a compact (f32/q8) scan; divide by CtrRerankQueries for the average
	// shortlist size. Zero when serving at f64.
	CtrRerankRows = "serve.rerank.rows"
	// CtrRerankQueries counts queries whose nearest neighbor came out of a
	// compact scan + exact re-rank.
	CtrRerankQueries = "serve.rerank.queries"
	// CtrReloads counts successful hot model reloads.
	CtrReloads = "serve.reloads"
	// CtrBusyUS accumulates microseconds the batcher spent processing
	// batches — the server's service demand. The benchmark harness divides
	// per-shard deltas of this by answered queries
	// (fleet.shard_busy_us_per_query).
	CtrBusyUS = "serve.busy.us"
	// CtrFleetRequests counts admitted shard-internal /fleet/assign
	// requests (masked scans and broadcast fallbacks from a router).
	CtrFleetRequests = "serve.fleet.requests"
)

// Config carries the serving knobs (see README "Configuration reference",
// serve.* rows).
type Config struct {
	// BatchMax flushes a batch once it holds this many query points
	// (default 64). Concurrent requests arriving while a batch runs
	// coalesce into the next one.
	BatchMax int
	// BatchLinger, when positive, lets the batcher wait this long for more
	// requests after the first before flushing. The default 0 flushes as
	// soon as the queue is momentarily empty: batches grow under load and
	// stay at one request when idle, with no added idle latency.
	BatchLinger time.Duration
	// QueueDepth bounds the admission queue (default 128). A request
	// arriving at a full queue is shed with 429, never blocked.
	QueueDepth int
	// Workers processes the requests of one batch concurrently when > 1
	// (default 1).
	Workers int
	// MaxRequestPoints bounds the points of one request (default 1024).
	MaxRequestPoints int
	// ReadHeaderTimeout bounds how long the listener waits for a client's
	// request headers (default 5s; a slow-loris client can no longer pin a
	// connection forever). Negative disables.
	ReadHeaderTimeout time.Duration
	// IdleTimeout closes keep-alive connections idle this long (default
	// 2m). Negative disables.
	IdleTimeout time.Duration
	// ReadTimeout / WriteTimeout bound a whole request read / response
	// write when positive (default 0: unbounded, so large batch uploads
	// and saturated-queue waits are not cut off arbitrarily).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// ShardID, when non-nil, names this server's slot in a serving fleet.
	// It is reported in /statsz so a router can verify at startup that the
	// replica it is about to route to really serves the shard it expects.
	ShardID *int
	// ExactOnly disables LSH pruning and answers every query by full scan
	// (the benchmark baseline).
	ExactOnly bool
	// Precision selects the scan representation ("", "f64", "f32", "q8" —
	// the serve.scan.precision knob). Compact precisions scan a smaller
	// mirror of the stored points and re-rank exactly in float64, so
	// results are identical at every setting. SetModel rejects unknown
	// values; a model that cannot support the requested representation
	// serves at f64.
	Precision string
	// Loader, when set, supplies a fresh model for Reload (SIGHUP or
	// POST /reload).
	Loader func() (*model.Model, error)
	// Trace, when non-nil, receives one obs span per request (Phase
	// "serve"), grouped into a JobTrace per batch. Meant for debugging
	// sessions, not sustained traffic: the trace grows without bound.
	Trace *obs.Trace
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// ProcessHook is a test hook invoked before each batch is processed.
	ProcessHook func()
}

func (c *Config) batchMax() int {
	if c.BatchMax > 0 {
		return c.BatchMax
	}
	return 64
}

func (c *Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 128
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 1
}

func (c *Config) maxRequestPoints() int {
	if c.MaxRequestPoints > 0 {
		return c.MaxRequestPoints
	}
	return 1024
}

func (c *Config) readHeaderTimeout() time.Duration {
	return timeoutOr(c.ReadHeaderTimeout, 5*time.Second)
}
func (c *Config) idleTimeout() time.Duration { return timeoutOr(c.IdleTimeout, 2*time.Minute) }

// timeoutOr resolves a timeout knob: 0 means the default, negative means
// disabled (0 on the http.Server).
func timeoutOr(v, def time.Duration) time.Duration {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	}
	return def
}

// request is one admitted /assign or /fleet/assign call waiting for its
// batch to run.
type request struct {
	qs      []points.Vector
	masks   []uint64 // non-nil: fleet masked scan (aligned with qs)
	exact   bool     // fleet broadcast fallback: force the exact scan
	out     []Assignment
	errs    []error // per-query results (fleet path reports them per point)
	err     error   // first per-query error (the /assign 500 contract)
	scanned int64
	start   time.Time
	done    chan struct{}
}

// mode buckets compatible requests of one batch into a single engine call.
func (r *request) mode() int {
	switch {
	case r.exact:
		return modeExact
	case r.masks != nil:
		return modeMasked
	}
	return modeNormal
}

const (
	modeNormal = iota
	modeMasked
	modeExact
	modeCount
)

// Server fronts an Engine with HTTP/JSON, micro-batching, and admission
// control. Create with New, load a model with SetModel (or Reload), then
// Start; Shutdown drains cleanly.
type Server struct {
	cfg      Config
	engine   atomic.Pointer[Engine]
	queue    chan *request
	quit     chan struct{}
	draining atomic.Bool
	counters *mapreduce.Counters
	hist     Hist
	batchID  atomic.Int64
	// ingest, when non-nil, is the streaming-ingest backend (SetIngest):
	// scans route through it and /ingest + /compact are live. Set before
	// Start, never mutated after.
	ingest     IngestBackend
	ingestHist Hist

	mux      *http.ServeMux
	httpSrv  *http.Server
	ln       net.Listener
	batchWG  sync.WaitGroup
	shutOnce sync.Once
	shutErr  error
}

// New builds a server from cfg. No model is loaded and no socket is open
// yet.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *request, cfg.queueDepth()),
		quit:     make(chan struct{}),
		counters: mapreduce.NewCounters(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /assign", s.handleAssign)
	s.mux.HandleFunc("POST /fleet/assign", s.handleFleetAssign)
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /compact", s.handleCompact)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("POST /reload", s.handleReload)
	return s
}

// SetModel indexes m and swaps it in atomically; in-flight batches finish
// against the engine they loaded.
func (s *Server) SetModel(m *model.Model) error {
	prec, err := ParsePrecision(s.cfg.Precision)
	if err != nil {
		return err
	}
	eng, err := NewEngine(m, prec)
	if err != nil {
		return err
	}
	s.UseEngine(eng)
	return nil
}

// UseEngine swaps in an already-indexed engine; in-flight batches finish
// against the engine they loaded. Lets several servers (or a benchmark
// harness sweeping configurations) share one index instead of re-bucketing
// the model per server.
func (s *Server) UseEngine(eng *Engine) {
	s.engine.Store(eng)
	m := eng.Model()
	s.logf("serve: model %q loaded: %d points dim %d, %d clusters, %d LSH buckets (M=%d pi=%d w=%.4g), scan=%s",
		m.Name, m.N(), m.Dim, m.NumClusters(), eng.Buckets(), m.LSH.M, m.LSH.Pi, m.LSH.W, eng.Precision())
}

// Reload fetches a fresh model through cfg.Loader and swaps it in — the
// SIGHUP / POST /reload path. The old model keeps serving until the new
// one has loaded and indexed successfully; a failed reload changes nothing.
func (s *Server) Reload() error {
	if s.cfg.Loader == nil {
		return fmt.Errorf("serve: no model loader configured")
	}
	m, err := s.cfg.Loader()
	if err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	if err := s.SetModel(m); err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	s.counters.Add(CtrReloads, 1)
	return nil
}

// Engine returns the currently serving engine (nil before the first
// successful SetModel/Reload).
func (s *Server) Engine() *Engine { return s.engine.Load() }

// Counters exposes the serve.* counter set.
func (s *Server) Counters() *mapreduce.Counters { return s.counters }

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr and serves until Shutdown. The batcher and the
// HTTP loop run in background goroutines.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	// Bounded header reads and idle keep-alives: one slow or silent client
	// must never pin a connection (and its goroutine) forever.
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.cfg.readHeaderTimeout(),
		IdleTimeout:       s.cfg.idleTimeout(),
		ReadTimeout:       timeoutOr(s.cfg.ReadTimeout, 0),
		WriteTimeout:      timeoutOr(s.cfg.WriteTimeout, 0),
	}
	s.batchWG.Add(1)
	go s.batcher()
	go s.httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
	s.logf("serve: listening on %s (batch<=%d linger=%s queue=%d workers=%d)",
		ln.Addr(), s.cfg.batchMax(), s.cfg.BatchLinger, s.cfg.queueDepth(), s.cfg.workers())
	return nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: new requests are refused (503), in-flight
// requests finish through the batcher, then the batcher exits. Safe to
// call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		if s.httpSrv != nil {
			// Waits for active handlers, each of which is blocked on its
			// request's done channel — i.e. for the queue to drain.
			s.shutErr = s.httpSrv.Shutdown(ctx)
		}
		close(s.quit)
		s.batchWG.Wait()
		s.logf("serve: drained: %d requests served, %d shed", s.counters.Get(CtrRequests), s.counters.Get(CtrShed))
	})
	return s.shutErr
}

// batcher is the single goroutine that turns the admission queue into
// kernel batches: it blocks for the first request, then greedily coalesces
// whatever else is already queued (up to BatchMax points, optionally
// lingering BatchLinger for more) into one processing pass.
func (s *Server) batcher() {
	defer s.batchWG.Done()
	var batch []*request
	for {
		select {
		case req := <-s.queue:
			batch = append(batch[:0], req)
			n := len(req.qs)
			var lingerC <-chan time.Time
			var lingerT *time.Timer
			if s.cfg.BatchLinger > 0 {
				lingerT = time.NewTimer(s.cfg.BatchLinger)
				lingerC = lingerT.C
			}
		collect:
			for n < s.cfg.batchMax() {
				if lingerC == nil {
					select {
					case r := <-s.queue:
						batch = append(batch, r)
						n += len(r.qs)
					default:
						break collect
					}
				} else {
					select {
					case r := <-s.queue:
						batch = append(batch, r)
						n += len(r.qs)
					case <-lingerC:
						break collect
					case <-s.quit:
						break collect
					}
				}
			}
			if lingerT != nil {
				lingerT.Stop()
			}
			s.process(batch)
		case <-s.quit:
			// Drain: after Shutdown no handler can enqueue, so the
			// residue in the buffer is all that is left.
			for {
				select {
				case r := <-s.queue:
					s.process([]*request{r})
				default:
					return
				}
			}
		}
	}
}

// process runs one batch through the engine and wakes every caller.
func (s *Server) process(batch []*request) {
	if s.cfg.ProcessHook != nil {
		s.cfg.ProcessHook()
	}
	eng := s.engine.Load()
	batchStart := time.Now()
	id := int(s.batchID.Add(1))

	// runGroup answers requests of one scan mode through one AssignBatchOpts
	// call, so every exact full scan in the group shares each row-tile pass.
	runGroup := func(group []*request) {
		var qs []points.Vector
		var masks []uint64
		mode := group[0].mode()
		live := make([]*request, 0, len(group))
		for _, r := range group {
			if eng == nil {
				r.err = fmt.Errorf("serve: no model loaded")
				continue
			}
			if mode == modeMasked && !eng.FleetIndexed() {
				// Admission checked against a different engine (hot reload
				// swapped in a model without a fleet index mid-flight).
				r.err = fmt.Errorf("serve: model carries no fleet index")
				continue
			}
			bad := false
			for _, q := range r.qs {
				if len(q) != eng.m.Dim {
					// The admission-time check ran against a different engine
					// (hot reload changed the dimensionality mid-flight).
					r.err = fmt.Errorf("serve: query dim %d, model dim %d", len(q), eng.m.Dim)
					bad = true
					break
				}
			}
			if bad {
				continue
			}
			live = append(live, r)
			qs = append(qs, r.qs...)
			if mode == modeMasked {
				masks = append(masks, r.masks...)
			}
		}
		if len(qs) == 0 {
			return
		}
		opts := BatchOpts{ExactOnly: s.cfg.ExactOnly}
		switch mode {
		case modeMasked:
			opts = BatchOpts{Masks: masks}
		case modeExact:
			opts = BatchOpts{ExactOnly: true}
		}
		assign := eng.AssignBatchOpts
		if s.ingest != nil {
			// Ingest mode: answer against base + delta so points become
			// visible the moment they are acked, not after compaction.
			assign = s.ingest.AssignBatch
		}
		out, errs, st := assign(qs, opts)
		off := 0
		for _, r := range live {
			n := len(r.qs)
			r.out = out[off : off+n]
			r.errs = errs[off : off+n]
			for _, err := range r.errs {
				if err != nil {
					r.err = err
					break
				}
			}
			// Amortized share of the group's scan work: batched exact scans
			// share tile passes, so per-request row counts are pro-rated.
			r.scanned = st.Scanned * int64(n) / int64(len(qs))
			off += n
		}
		s.counters.Add(CtrCandidates, st.Scanned)
		s.counters.Add(CtrCertified, st.Certified)
		s.counters.Add(CtrExactScans, st.ExactQueries)
		s.counters.Add(CtrRerankRows, st.Rerank)
		s.counters.Add(CtrRerankQueries, st.RerankQueries)
	}

	// runShard splits a contiguous slice of requests by scan mode (normal,
	// fleet-masked, fleet-exact) and runs each non-empty group.
	runShard := func(shard []*request) {
		var groups [modeCount][]*request
		for _, r := range shard {
			groups[r.mode()] = append(groups[r.mode()], r)
		}
		for _, g := range groups {
			if len(g) > 0 {
				runGroup(g)
			}
		}
	}

	if w := s.cfg.workers(); w > 1 && len(batch) > 1 {
		// Split the batch into up to Workers contiguous request shards
		// processed concurrently; each shard still batches its own scans.
		shards := w
		if shards > len(batch) {
			shards = len(batch)
		}
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			lo := i * len(batch) / shards
			hi := (i + 1) * len(batch) / shards
			wg.Add(1)
			go func(sh []*request) {
				defer wg.Done()
				runShard(sh)
			}(batch[lo:hi])
		}
		wg.Wait()
	} else {
		runShard(batch)
	}

	var spans []obs.Span
	var pts int64
	for i, r := range batch {
		pts += int64(len(r.qs))
		s.hist.Record(time.Since(r.start))
		if s.cfg.Trace != nil {
			spans = append(spans, obs.Span{
				Job: "serve", JobID: id, Phase: obs.PhaseServe, Task: i,
				Start: r.start, Wall: time.Since(r.start),
				Records: int64(len(r.qs)), Bytes: r.scanned,
			})
		}
		close(r.done)
	}
	s.counters.Add(CtrRequests, int64(len(batch)))
	s.counters.Add(CtrPoints, pts)
	s.counters.Add(CtrBatches, 1)
	// Service demand, not latency: the time this batch actually occupied the
	// batcher. Per-shard deltas stay meaningful even when several shards
	// share one machine and wall-clock QPS measures only contention.
	s.counters.Add(CtrBusyUS, time.Since(batchStart).Microseconds())
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(obs.JobTrace{Job: "serve", ID: id, Wall: time.Since(batchStart), Spans: spans})
	}
}

// ValidatePoints checks a batch of query points against a model of the given
// dimensionality, enforcing the serving layer's size and coordinate bounds.
// It returns the HTTP status and message a server would reject the batch
// with, or (0, "") when the batch is admissible. Exported so the fleet
// router can reject bad requests with byte-identical errors and never burn a
// shard round-trip on them.
func ValidatePoints(pts [][]float64, dim, maxPoints int) (int, string) {
	if len(pts) == 0 {
		return http.StatusBadRequest, "no points"
	}
	if len(pts) > maxPoints {
		return http.StatusBadRequest, fmt.Sprintf("too many points: %d > %d", len(pts), maxPoints)
	}
	maxCoord := MaxCoord(dim)
	for i, p := range pts {
		if len(p) != dim {
			return http.StatusBadRequest, fmt.Sprintf("point %d has dim %d, model has dim %d", i, len(p), dim)
		}
		for _, x := range p {
			// Reject coordinates whose squared distances could overflow to
			// +Inf — past that bound no nearest point is computable.
			if math.IsNaN(x) || math.Abs(x) > maxCoord {
				return http.StatusBadRequest, fmt.Sprintf("point %d has non-finite or out-of-range coordinate %v (|x| must be <= %.4g)", i, x, maxCoord)
			}
		}
	}
	return 0, ""
}

// assignRequest is the /assign JSON body.
type assignRequest struct {
	Points [][]float64 `json:"points"`
}

// assignResponse is the /assign JSON reply.
type assignResponse struct {
	Results []Assignment `json:"results"`
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	eng := s.engine.Load()
	if eng == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	var body assignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&body); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if status, msg := ValidatePoints(body.Points, eng.m.Dim, s.cfg.maxRequestPoints()); status != 0 {
		http.Error(w, msg, status)
		return
	}
	qs := make([]points.Vector, len(body.Points))
	for i, p := range body.Points {
		qs[i] = p
	}
	req := &request{qs: qs, start: time.Now(), done: make(chan struct{})}
	select {
	case s.queue <- req:
	default:
		s.counters.Add(CtrShed, 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded: admission queue full", http.StatusTooManyRequests)
		return
	}
	select {
	case <-req.done:
	case <-s.quit:
		// Shutdown's context expired before this request was processed; the
		// batcher may already have drained and exited, so waiting on done
		// could block forever. Re-check done to avoid dropping an answer
		// that raced with the quit close, then fail the request.
		select {
		case <-req.done:
		default:
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
	}
	if req.err != nil {
		http.Error(w, req.err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(assignResponse{Results: req.out}) //nolint:errcheck
}

// FleetAssignRequest is the shard-internal /fleet/assign JSON body. Masks
// select, per query, which LSH layouts this shard owns and must scan (bit j
// = layout j); Exact instead runs the router's broadcast fallback, an exact
// full scan over this shard's rows. Exactly one of the two shapes is valid.
type FleetAssignRequest struct {
	Points [][]float64 `json:"points"`
	Masks  []uint64    `json:"masks,omitempty"`
	Exact  bool        `json:"exact,omitempty"`
}

// FleetResult is one per-query entry of a /fleet/assign reply. Nearest is a
// global point ID (the shard translates through its RowIDs section), and D2
// — the exact squared distance — is the router's merge key. NoCand marks a
// masked query that found no candidate in the scanned layouts; NoFinite an
// exact scan that found no finite distance. Either flag voids the other
// fields for that query.
type FleetResult struct {
	Assignment
	D2       float64 `json:"d2"`
	NoCand   bool    `json:"nocand,omitempty"`
	NoFinite bool    `json:"nofinite,omitempty"`
}

// FleetAssignResponse is the /fleet/assign JSON reply.
type FleetAssignResponse struct {
	Results []FleetResult `json:"results"`
}

// handleFleetAssign is the shard-side half of the fleet protocol: a masked
// scan over the layouts this shard owns for each query, or the broadcast
// exact fallback. Per-query misses travel as flags, not errors — the router
// alone decides when a fleet-wide miss becomes a fallback or an error.
func (s *Server) handleFleetAssign(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	eng := s.engine.Load()
	if eng == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	var body FleetAssignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&body); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if status, msg := ValidatePoints(body.Points, eng.m.Dim, s.cfg.maxRequestPoints()); status != 0 {
		http.Error(w, msg, status)
		return
	}
	if !body.Exact {
		if len(body.Masks) != len(body.Points) {
			http.Error(w, fmt.Sprintf("masks/points mismatch: %d masks, %d points", len(body.Masks), len(body.Points)), http.StatusBadRequest)
			return
		}
		if !eng.FleetIndexed() {
			http.Error(w, "model carries no fleet index (not a partitioned sub-model?)", http.StatusServiceUnavailable)
			return
		}
	}
	qs := make([]points.Vector, len(body.Points))
	for i, p := range body.Points {
		qs[i] = p
	}
	req := &request{qs: qs, exact: body.Exact, start: time.Now(), done: make(chan struct{})}
	if !body.Exact {
		req.masks = body.Masks
	}
	select {
	case s.queue <- req:
	default:
		s.counters.Add(CtrShed, 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded: admission queue full", http.StatusTooManyRequests)
		return
	}
	select {
	case <-req.done:
	case <-s.quit:
		select {
		case <-req.done:
		default:
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
	}
	s.counters.Add(CtrFleetRequests, 1)
	results := make([]FleetResult, len(req.qs))
	for i := range req.qs {
		var err error
		if req.errs != nil {
			err = req.errs[i]
		} else if req.err != nil {
			err = req.err // request-level failure (stale engine, no model)
		}
		switch {
		case err == nil:
			results[i] = FleetResult{Assignment: req.out[i], D2: req.out[i].Dist2}
		case err == ErrNoCandidates:
			results[i] = FleetResult{NoCand: true}
		case err == ErrNoFinite:
			results[i] = FleetResult{NoFinite: true}
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(FleetAssignResponse{Results: results}) //nolint:errcheck
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.engine.Load() == nil:
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ok")
	}
}

// Statsz is the /statsz JSON document.
type Statsz struct {
	// Shard is this server's fleet slot (serve.shard.id), nil outside a
	// fleet. Routers check it at startup against their shard map.
	Shard    *int             `json:"shard,omitempty"`
	Model    *ModelInfo       `json:"model,omitempty"`
	Counters map[string]int64 `json:"counters"`
	Latency  LatencyInfo      `json:"latency"`
	// Ingest and IngestLatency appear only on ingest nodes: the backend
	// state snapshot and the /ingest request-latency quantiles (the
	// ingest.* / compact.* counters are merged into Counters).
	Ingest        *IngestInfo  `json:"ingest,omitempty"`
	IngestLatency *LatencyInfo `json:"ingest_latency,omitempty"`
	Queue         QueueInfo    `json:"queue"`
	Draining      bool         `json:"draining"`
}

// ModelInfo summarizes the loaded model for /statsz.
type ModelInfo struct {
	Name     string  `json:"name"`
	N        int     `json:"n"`
	Dim      int     `json:"dim"`
	Clusters int     `json:"clusters"`
	Buckets  int     `json:"lsh_buckets"`
	M        int     `json:"lsh_m"`
	Pi       int     `json:"lsh_pi"`
	W        float64 `json:"lsh_w"`
	// Precision is the effective scan precision (may be "f64" even when
	// serve.scan.precision asked for a compact one the model cannot carry).
	Precision string `json:"precision"`
}

// LatencyInfo carries the request-latency histogram quantiles (µs).
type LatencyInfo struct {
	Count int64 `json:"count"`
	P50us int64 `json:"p50_us"`
	P90us int64 `json:"p90_us"`
	P99us int64 `json:"p99_us"`
}

// QueueInfo reports admission-queue occupancy.
type QueueInfo struct {
	Depth int `json:"depth"`
	Cap   int `json:"cap"`
}

// Stats snapshots the server's observable state (what /statsz serves).
func (s *Server) Stats() Statsz {
	st := Statsz{
		Shard:    s.cfg.ShardID,
		Counters: s.counters.Snapshot(),
		Latency: LatencyInfo{
			Count: s.hist.Count(),
			P50us: s.hist.Quantile(0.50).Microseconds(),
			P90us: s.hist.Quantile(0.90).Microseconds(),
			P99us: s.hist.Quantile(0.99).Microseconds(),
		},
		Queue:    QueueInfo{Depth: len(s.queue), Cap: cap(s.queue)},
		Draining: s.draining.Load(),
	}
	if eng := s.engine.Load(); eng != nil {
		m := eng.Model()
		st.Model = &ModelInfo{
			Name: m.Name, N: m.N(), Dim: m.Dim, Clusters: m.NumClusters(),
			Buckets: eng.Buckets(), M: m.LSH.M, Pi: m.LSH.Pi, W: m.LSH.W,
			Precision: eng.Precision().String(),
		}
	}
	if b := s.ingest; b != nil {
		info := b.Info()
		st.Ingest = &info
		st.IngestLatency = &LatencyInfo{
			Count: s.ingestHist.Count(),
			P50us: s.ingestHist.Quantile(0.50).Microseconds(),
			P90us: s.ingestHist.Quantile(0.90).Microseconds(),
			P99us: s.ingestHist.Quantile(0.99).Microseconds(),
		}
		for k, v := range b.Counters() {
			st.Counters[k] = v
		}
	}
	return st
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats()) //nolint:errcheck
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	if s.ingest != nil {
		// The compactor owns the model lineage on an ingest node; an
		// external reload would silently drop the delta segment.
		http.Error(w, "ingest mode: the compactor manages the model (use POST /compact)", http.StatusConflict)
		return
	}
	if err := s.Reload(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintln(w, "reloaded")
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}
