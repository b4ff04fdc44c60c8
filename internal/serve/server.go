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
	// CtrBatches counts engine calls, one per answered request: divide
	// CtrPoints by it for the points per request.
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
	// CtrBusyUS accumulates microseconds spent inside engine calls, summed
	// over concurrent workers — the server's service demand. The benchmark
	// harness divides per-shard deltas of this by answered queries
	// (fleet.shard_busy_us_per_query).
	CtrBusyUS = "serve.busy.us"
	// CtrFleetRequests counts admitted shard-internal /fleet/assign
	// requests (masked scans and broadcast fallbacks from a router).
	CtrFleetRequests = "serve.fleet.requests"
)

// Config carries the serving knobs (see README "Configuration reference",
// serve.* rows).
type Config struct {
	// QueueDepth bounds the admitted requests waiting for a worker (default
	// 128). A request arriving at a full queue is shed with 429, never
	// blocked.
	QueueDepth int
	// Workers bounds the engine calls answered at once (default 1).
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
	// "serve"), each in a JobTrace of its own. Meant for debugging
	// sessions, not sustained traffic: the trace grows without bound.
	Trace *obs.Trace
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// ProcessHook is a test hook invoked before each engine call, on a
	// worker slot.
	ProcessHook func()
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

// Server fronts an Engine with HTTP/JSON and admission control; each
// request is answered on the handler that admitted it. Create with New,
// load a model with SetModel (or Reload), then Start; Shutdown drains
// cleanly.
type Server struct {
	cfg    Config
	engine atomic.Pointer[Engine]
	// waiting and running are the admission gate, two counting semaphores:
	// an admitted request holds one of QueueDepth waiting slots until one
	// of Workers run slots frees, and the run slot for its engine call.
	waiting  chan struct{}
	running  chan struct{}
	draining atomic.Bool
	counters *mapreduce.Counters
	hist     Hist
	traceID  atomic.Int64
	// ingest, when non-nil, is the streaming-ingest backend (SetIngest):
	// scans route through it and /ingest + /compact are live. Set before
	// Start, never mutated after.
	ingest     IngestBackend
	ingestHist Hist

	mux      *http.ServeMux
	httpSrv  *http.Server
	ln       net.Listener
	shutOnce sync.Once
	shutErr  error
}

// New builds a server from cfg. No model is loaded and no socket is open
// yet.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		waiting:  make(chan struct{}, cfg.queueDepth()),
		running:  make(chan struct{}, cfg.workers()),
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

// SetModel indexes m and swaps it in atomically; in-flight requests finish
// against the engine they were admitted on.
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

// UseEngine swaps in an already-indexed engine; in-flight requests finish
// against the engine they were admitted on. Lets several servers (or a
// benchmark harness sweeping configurations) share one index instead of
// re-bucketing the model per server.
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

// Start listens on addr and serves until Shutdown; the HTTP loop runs in a
// background goroutine.
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
	go s.httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
	s.logf("serve: listening on %s (queue=%d workers=%d)", ln.Addr(), s.cfg.queueDepth(), s.cfg.workers())
	return nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: new requests are refused (503), and
// http.Server.Shutdown waits for the handlers of queued and in-flight
// requests, each of which answers its own request. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		if s.httpSrv != nil {
			s.shutErr = s.httpSrv.Shutdown(ctx)
		}
		s.logf("serve: drained: %d requests served, %d shed", s.counters.Get(CtrRequests), s.counters.Get(CtrShed))
	})
	return s.shutErr
}

// admit runs the prologue every point-carrying endpoint shares: refuse
// while draining or modelless, then decode and validate the body (whose
// points *pts are) against the serving engine, which it returns — nil when
// a reply has already been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, body any, pts *[][]float64) *Engine {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return nil
	}
	eng := s.engine.Load()
	if eng == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return nil
	}
	if !DecodePoints(w, r, body, pts, eng.m.Dim, s.cfg.maxRequestPoints()) {
		return nil
	}
	return eng
}

// answer runs one admitted /assign or /fleet/assign request on the handler
// that admitted it: it waits in the admission gate (a full queue sheds the
// request with 429; a client that goes away leaves the queue), makes one
// engine call on eng — the engine admission validated against — and
// records the counters, the latency and the trace span. ok is false when
// the request was not answered.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, eng *Engine, pts [][]float64, opts BatchOpts) (out []Assignment, errs []error, ok bool) {
	start := time.Now()
	select {
	case s.waiting <- struct{}{}:
	default:
		s.counters.Add(CtrShed, 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded: admission queue full", http.StatusTooManyRequests)
		return nil, nil, false
	}
	select {
	case s.running <- struct{}{}:
		<-s.waiting
	case <-r.Context().Done():
		<-s.waiting
		return nil, nil, false
	}
	defer func() { <-s.running }()
	if s.cfg.ProcessHook != nil {
		s.cfg.ProcessHook()
	}
	qs := make([]points.Vector, len(pts))
	for i, p := range pts {
		qs[i] = p
	}
	call := time.Now()
	var st ScanStats
	if s.ingest == nil {
		out, errs, st = eng.AssignBatchOpts(qs, opts)
	} else {
		out, errs, st = s.assignIngest(qs, opts)
	}
	s.counters.Add(CtrBusyUS, time.Since(call).Microseconds())
	s.counters.Add(CtrRequests, 1)
	s.counters.Add(CtrPoints, int64(len(qs)))
	s.counters.Add(CtrBatches, 1)
	s.counters.Add(CtrCandidates, st.Scanned)
	s.counters.Add(CtrCertified, st.Certified)
	s.counters.Add(CtrExactScans, st.ExactQueries)
	s.counters.Add(CtrRerankRows, st.Rerank)
	s.counters.Add(CtrRerankQueries, st.RerankQueries)
	wall := time.Since(start)
	s.hist.Record(wall)
	if s.cfg.Trace != nil {
		id := int(s.traceID.Add(1))
		s.cfg.Trace.Add(obs.JobTrace{Job: "serve", ID: id, Wall: wall, Spans: []obs.Span{{
			Job: "serve", JobID: id, Phase: obs.PhaseServe, Start: start, Wall: wall,
			Records: int64(len(qs)), Bytes: st.Scanned,
		}}})
	}
	return out, errs, true
}

// assignIngest answers through the ingest backend, against base + delta so
// points are visible the moment they are acked. The store answers on its
// current engine, which a compaction may have swapped in since admission:
// the request is re-checked against the swapped-in engine first, and fails
// as a whole if it no longer fits.
func (s *Server) assignIngest(qs []points.Vector, opts BatchOpts) ([]Assignment, []error, ScanStats) {
	eng := s.engine.Load()
	var err error
	if opts.Masks != nil && !eng.FleetIndexed() {
		err = fmt.Errorf("serve: model carries no fleet index")
	}
	for _, q := range qs {
		if len(q) != eng.m.Dim {
			err = fmt.Errorf("serve: query dim %d, model dim %d", len(q), eng.m.Dim)
		}
	}
	if err == nil {
		return s.ingest.AssignBatch(qs, opts)
	}
	errs := make([]error, len(qs))
	for i := range errs {
		errs[i] = err
	}
	return make([]Assignment, len(qs)), errs, ScanStats{}
}

// DecodePoints decodes a JSON request body into body and validates the
// points it carries, *pts (a field of body), against a model of the given
// dimensionality, enforcing the serving layer's size and coordinate bounds.
// On failure it writes the 400 reply and returns false. Every
// point-carrying endpoint — a server's /assign, /fleet/assign and /ingest,
// the fleet router's /assign and /ingest — starts with it, so a routed
// request is rejected byte-identically to a single-node one and never burns
// a shard round-trip.
func DecodePoints(w http.ResponseWriter, r *http.Request, body any, pts *[][]float64, dim, maxPoints int) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(body); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	if msg := checkPoints(*pts, dim, maxPoints); msg != "" {
		http.Error(w, msg, http.StatusBadRequest)
		return false
	}
	return true
}

// checkPoints returns why a batch of query points is inadmissible, or "".
func checkPoints(pts [][]float64, dim, maxPoints int) string {
	if len(pts) == 0 {
		return "no points"
	}
	if len(pts) > maxPoints {
		return fmt.Sprintf("too many points: %d > %d", len(pts), maxPoints)
	}
	maxCoord := MaxCoord(dim)
	for i, p := range pts {
		if len(p) != dim {
			return fmt.Sprintf("point %d has dim %d, model has dim %d", i, len(p), dim)
		}
		for _, x := range p {
			// Reject coordinates whose squared distances could overflow to
			// +Inf — past that bound no nearest point is computable.
			if math.IsNaN(x) || math.Abs(x) > maxCoord {
				return fmt.Sprintf("point %d has non-finite or out-of-range coordinate %v (|x| must be <= %.4g)", i, x, maxCoord)
			}
		}
	}
	return ""
}

// assignRequest is the /assign and /ingest JSON body.
type assignRequest struct {
	Points [][]float64 `json:"points"`
}

// assignResponse is the /assign JSON reply.
type assignResponse struct {
	Results []Assignment `json:"results"`
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	var body assignRequest
	eng := s.admit(w, r, &body, &body.Points)
	if eng == nil {
		return
	}
	out, errs, ok := s.answer(w, r, eng, body.Points, BatchOpts{ExactOnly: s.cfg.ExactOnly})
	if !ok {
		return
	}
	for _, err := range errs {
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(assignResponse{Results: out}) //nolint:errcheck
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
	var body FleetAssignRequest
	eng := s.admit(w, r, &body, &body.Points)
	if eng == nil {
		return
	}
	opts := BatchOpts{ExactOnly: true}
	if !body.Exact {
		if len(body.Masks) != len(body.Points) {
			http.Error(w, fmt.Sprintf("masks/points mismatch: %d masks, %d points", len(body.Masks), len(body.Points)), http.StatusBadRequest)
			return
		}
		if !eng.FleetIndexed() {
			http.Error(w, "model carries no fleet index (not a partitioned sub-model?)", http.StatusServiceUnavailable)
			return
		}
		opts = BatchOpts{Masks: body.Masks}
	}
	out, errs, ok := s.answer(w, r, eng, body.Points, opts)
	if !ok {
		return
	}
	s.counters.Add(CtrFleetRequests, 1)
	results := make([]FleetResult, len(out))
	for i, err := range errs {
		switch {
		case err == nil:
			results[i] = FleetResult{Assignment: out[i], D2: out[i].Dist2}
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
		Queue:    QueueInfo{Depth: len(s.waiting), Cap: cap(s.waiting)},
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
