package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/knob"
	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/points"
)

// Counter names of the serving layer, reported by /statsz (and clusterd's
// shutdown dump) next to the familiar mr.* family.
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
	// evaluated: the union rows the tree walks did not prune, plus every row of
	// each exact scan. Divide by CtrPoints for the rows one answer costs.
	CtrCandidates = "serve.candidates"
	// CtrCertified counts queries answered from a single bucket, the nearest
	// row there lying strictly inside the query's LSH guarantee radius. On a
	// fleet shard: the router's first-round queries this shard certified.
	CtrCertified = "serve.certified"
	// CtrRerankRows counts the exact float64 distances a q8 tree walk
	// computed, for the rows its compact filter let through;
	// divide by CtrRerankQueries for the average per query. Zero when
	// serving at f64.
	CtrRerankRows = "serve.rerank.rows"
	// CtrRerankQueries counts queries whose tree walk ran through the
	// compact filter.
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
	// Workers bounds the engine calls answered at once (default 1).
	Workers int
	// ShardID, when non-nil, names this server's slot in a serving fleet.
	// It is reported in /statsz so a router can verify at startup that the
	// replica it is about to route to really serves the shard it expects.
	ShardID *int
	// Precision selects the scan representation ("", "f64", "q8" — the
	// serve.scan.precision knob). q8 filters rows on 8-bit codes of the
	// stored points before their exact float64 distance, so results are
	// identical at every setting. SetModel rejects unknown
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

// Validate refuses a negative Workers or *ShardID and an unknown Precision.
func (c *Config) Validate() error {
	var shard error
	if c.ShardID != nil {
		shard = knob.Count("serve: ShardID", *c.ShardID)
	}
	_, prec := ParsePrecision(c.Precision)
	return cmp.Or(knob.Count("serve: Workers", c.Workers), shard, prec)
}

// maxRequestPoints bounds the query points of one request, on every
// point-carrying endpoint of a server and of a fleet router alike, so a
// batch the router admits is one every shard admits.
const maxRequestPoints = 1024

// queueDepth bounds the admitted requests waiting for a worker; a request
// arriving at a full queue is shed with 429, never blocked. New reads it
// (a variable only so tests can shrink it).
var queueDepth = 128

// Server fronts an Engine with HTTP/JSON and admission control; each
// request is answered on the handler that admitted it. Create with New,
// load a model with SetModel (or Reload), then Start; Shutdown drains as
// Front states.
type Server struct {
	*Front
	cfg    Config
	engine atomic.Pointer[Engine]
	// waiting and running are the admission gate, two counting semaphores:
	// an admitted request holds one of queueDepth waiting slots until one
	// of Workers run slots frees, and the run slot for its engine call.
	waiting  chan struct{}
	running  chan struct{}
	counters *mapreduce.Counters
	hist     Hist
	traceID  atomic.Int64
	// ingest, when non-nil, is the streaming-ingest backend (SetIngest):
	// scans route through it and /ingest + /compact are live. Set before
	// Start, never mutated after.
	ingest     IngestBackend
	ingestHist Hist
}

// New builds a server from cfg. No model is loaded and no socket is open
// yet.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		waiting:  make(chan struct{}, queueDepth),
		running:  make(chan struct{}, max(cfg.Workers, 1)),
		counters: mapreduce.NewCounters(),
	}
	s.Front = NewFront(func() string {
		if s.engine.Load() == nil {
			return "no model loaded"
		}
		return ""
	}, func(context.Context) any { return s.Stats() })
	s.Handle("POST /assign", s.handleAssign)
	s.Handle("POST /fleet/assign", s.handleFleetAssign)
	s.Handle("POST /ingest", s.handleIngest)
	s.Handle("POST /compact", s.handleCompact)
	s.Handle("POST /reload", s.handleReload)
	return s
}

// SetModel indexes m and swaps it in atomically; in-flight requests finish
// against the engine they were admitted on. Beside a serving engine (a
// reload) the index is built on one goroutine (Engine.Successor).
func (s *Server) SetModel(m *model.Model) error {
	prec, err := ParsePrecision(s.cfg.Precision)
	if err != nil {
		return err
	}
	eng, err := s.engine.Load().Successor(m, prec)
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

// Shutdown drains the server (Front.Shutdown) and, once no request is left
// running, drops its engine: a connection goroutine the HTTP server closed
// may still be exiting, and through the handlers it reaches the server, so
// the model would outlive a collection that ran first.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.Front.Shutdown(ctx); err != nil {
		return err
	}
	s.engine.Store(nil)
	return nil
}

// Counters exposes the serve.* counter set.
func (s *Server) Counters() *mapreduce.Counters { return s.counters }

// Start validates the config, then listens on addr until Shutdown (Front.Start).
func (s *Server) Start(addr string) error {
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	if err := s.Front.Start(addr); err != nil {
		return err
	}
	s.logf("serve: listening on %s (queue=%d workers=%d)", s.Addr(), cap(s.waiting), cap(s.running))
	return nil
}

// admit runs the prologue every point-carrying endpoint shares: refuse
// while draining or modelless, then decode and validate the body (whose
// points *pts are) against the serving engine, which it returns — nil when
// a reply has already been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, body any, pts *[][]float64) *Engine {
	if s.Refuse(w) {
		return nil
	}
	eng := s.engine.Load()
	if !DecodePoints(w, r, body, pts, eng.m.Dim) {
		return nil
	}
	return eng
}

// answer runs one admitted /assign or /fleet/assign request on the handler
// that admitted it: it waits in the admission gate (a full queue sheds the
// request with 429; a client that goes away leaves the queue), makes one
// engine call on eng — the engine admission validated against — or, on an
// ingest node, on the backend's current engine, which a compaction may have
// swapped in but with eng's dim, LSH layouts and fleet index, and records
// the counters, the latency and the trace span. ok is false when the
// request was not answered.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, eng *Engine, pts [][]float64, opts BatchOpts) (out []Assignment, errs []error, ok bool) {
	start := time.Now()
	select {
	case s.waiting <- struct{}{}:
	default:
		s.counters.Add(CtrShed, 1)
		Shed(w, "overloaded: admission queue full")
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
		out, errs, st = s.ingest.AssignBatch(qs, opts)
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

// DecodePoints decodes a JSON request body into body and validates the
// points it carries, *pts (a field of body), against a model of the given
// dimensionality, enforcing the serving layer's size and coordinate bounds.
// On failure it writes the 400 reply and returns false. Every
// point-carrying endpoint — a server's /assign, /fleet/assign and /ingest,
// the fleet router's /assign and /ingest — starts with it, so a routed
// request is rejected byte-identically to a single-node one and never burns
// a shard round-trip.
func DecodePoints(w http.ResponseWriter, r *http.Request, body any, pts *[][]float64, dim int) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(body); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	if msg := checkPoints(*pts, dim); msg != "" {
		http.Error(w, msg, http.StatusBadRequest)
		return false
	}
	return true
}

// checkPoints returns why a batch of query points is inadmissible, or "".
func checkPoints(pts [][]float64, dim int) string {
	if len(pts) == 0 {
		return "no points"
	}
	if len(pts) > maxRequestPoints {
		return fmt.Sprintf("too many points: %d > %d", len(pts), maxRequestPoints)
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

// AssignRequest is the /assign and /ingest JSON body, of a server and of a
// fleet router alike.
type AssignRequest struct {
	Points [][]float64 `json:"points"`
}

// AssignResponse is the /assign JSON reply; a fleet router's is
// byte-identical.
type AssignResponse struct {
	Results []Assignment `json:"results"`
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	var body AssignRequest
	eng := s.admit(w, r, &body, &body.Points)
	if eng == nil {
		return
	}
	out, errs, ok := s.answer(w, r, eng, body.Points, BatchOpts{})
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
	json.NewEncoder(w).Encode(AssignResponse{Results: out}) //nolint:errcheck
}

// FleetAssignRequest is the shard-internal /fleet/assign JSON body. Masks
// select, per query, which LSH layouts this shard owns and must scan (bit j
// = layout j, j below the model's layout count M); Exact instead runs the
// router's broadcast fallback, an exact full scan over this shard's rows.
// Exactly one of the two shapes is valid: a mask bit at or above M, or
// masks or bounds beside Exact, is refused with 400.
// Bounds, optional beside Masks, caps query i at the exact squared distance
// Bounds[i] (BatchOpts.Bounds); absent, no query is capped. JSON has no
// +Inf, so the router leaves one query uncapped with math.MaxFloat64: every
// finite squared distance ties or beats it.
type FleetAssignRequest struct {
	Points [][]float64 `json:"points"`
	Masks  []uint64    `json:"masks,omitempty"`
	Bounds []float64   `json:"bounds,omitempty"`
	Exact  bool        `json:"exact,omitempty"`
}

// FleetResult is one per-query entry of a /fleet/assign reply. Nearest is a
// global point ID (the shard translates through its RowIDs section), and D2
// — the exact squared distance — is the router's merge key. Certified marks
// an answer the one-bucket certificate proved final fleet-wide. NoCand
// marks a masked query that found no candidate in the scanned layouts
// (within its bound); NoFinite an exact scan that found no finite distance.
// Either flag voids the other fields for that query.
type FleetResult struct {
	Assignment
	D2        float64 `json:"d2"`
	Certified bool    `json:"certified,omitempty"`
	NoCand    bool    `json:"nocand,omitempty"`
	NoFinite  bool    `json:"nofinite,omitempty"`
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
	switch {
	case body.Exact && body.Masks != nil:
		http.Error(w, "masks sent beside exact: the exact fallback scans every row and reads no mask", http.StatusBadRequest)
		return
	case body.Exact && body.Bounds != nil:
		http.Error(w, "bounds sent beside exact: the exact fallback is never capped", http.StatusBadRequest)
		return
	}
	if !body.Exact {
		if len(body.Masks) != len(body.Points) {
			http.Error(w, fmt.Sprintf("masks/points mismatch: %d masks, %d points", len(body.Masks), len(body.Points)), http.StatusBadRequest)
			return
		}
		if body.Bounds != nil && len(body.Bounds) != len(body.Points) {
			http.Error(w, fmt.Sprintf("bounds/points mismatch: %d bounds, %d points", len(body.Bounds), len(body.Points)), http.StatusBadRequest)
			return
		}
		for i, b := range body.Bounds {
			if !(b >= 0) {
				http.Error(w, fmt.Sprintf("bound %d is %v, want a squared distance >= 0", i, b), http.StatusBadRequest)
				return
			}
		}
		if !eng.FleetIndexed() {
			http.Error(w, "model carries no fleet index (not a partitioned sub-model?)", http.StatusServiceUnavailable)
			return
		}
		m := eng.Layouts()
		for i, mask := range body.Masks {
			if mask>>m != 0 {
				http.Error(w, fmt.Sprintf("masks[%d] = %#x sets a bit at or above the model's %d layouts", i, mask, m), http.StatusBadRequest)
				return
			}
		}
		opts = BatchOpts{Masks: body.Masks, Bounds: body.Bounds}
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
			results[i] = FleetResult{Assignment: out[i], D2: out[i].Dist2, Certified: out[i].Certified}
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
		Latency:  s.hist.Latency(),
		Queue:    QueueInfo{Depth: len(s.waiting), Cap: cap(s.waiting)},
		Draining: s.Draining(),
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
		lat := s.ingestHist.Latency()
		st.Ingest, st.IngestLatency = &info, &lat
		for k, v := range b.Counters() {
			st.Counters[k] = v
		}
	}
	return st
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
