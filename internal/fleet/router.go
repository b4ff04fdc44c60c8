package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/serve"
)

// Counter names of the routing layer, reported by the router's /statsz.
const (
	// CtrRequests counts admitted /assign requests.
	CtrRequests = "fleet.requests"
	// CtrPoints counts query points across admitted requests.
	CtrPoints = "fleet.points"
	// CtrShardsPerQuery sums the distinct owning shards per query; divide
	// by CtrPoints for the mean fan-out. Strictly below the shard count
	// means routing is bounded, not broadcast.
	CtrShardsPerQuery = "fleet.shards.per.query"
	// CtrHedges counts hedged (duplicate) shard requests issued after the
	// p99-based delay; CtrHedgeWins counts those whose reply was used.
	CtrHedges    = "fleet.hedges"
	CtrHedgeWins = "fleet.hedge.wins"
	// CtrRetries counts failover re-sends after a replica failed.
	CtrRetries = "fleet.retries"
	// CtrFallbackBroadcasts counts exact-fallback rounds: a batch had at
	// least one query with no LSH candidate anywhere, so the router
	// broadcast an exact scan for those queries to every shard.
	CtrFallbackBroadcasts = "fleet.fallback.broadcasts"
	// CtrErrors counts /assign requests failed with a 5xx.
	CtrErrors = "fleet.errors"
	// CtrShed counts /assign requests rejected 429 because a shard shed.
	CtrShed = "fleet.shed"
	// CtrReplicaDeaths counts replicas declared dead (probe timeout or
	// transport failure); re-probes revive them.
	CtrReplicaDeaths = "fleet.replica.deaths"
)

// RouterConfig carries the routing knobs (README "Configuration reference",
// fleet.* rows).
type RouterConfig struct {
	// Manifest describes the fleet (required).
	Manifest *Manifest
	// Shards lists replica base URLs per shard, indexed like the ring:
	// Shards[s] holds at least one "host:port" for shard s (required, one
	// entry per manifest shard).
	Shards [][]string
	// HedgeDelay controls hedged shard requests: 0 (default) hedges after
	// the shard's observed p99 latency, a positive value after exactly
	// that delay, negative disables hedging.
	HedgeDelay time.Duration
	// Heartbeat is the liveness-probe interval (default 1s).
	Heartbeat time.Duration
	// DeadAfter declares a replica dead when no probe or request has
	// succeeded for this long (default 5s). Dead replicas receive no
	// traffic until a probe succeeds again.
	DeadAfter time.Duration
	// MaxRequestPoints bounds one /assign request (default 1024); keep it
	// equal to the shards' serve.max.points so limits agree fleet-wide.
	MaxRequestPoints int
	// ShardTimeout bounds one shard round-trip (default 30s).
	ShardTimeout time.Duration
	// ReadHeaderTimeout / IdleTimeout harden the router's own listener
	// exactly like serve.Config's fields (0 = 5s / 2m, negative disables).
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (c *RouterConfig) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return time.Second
}

func (c *RouterConfig) deadAfter() time.Duration {
	if c.DeadAfter > 0 {
		return c.DeadAfter
	}
	return 5 * time.Second
}

func (c *RouterConfig) maxRequestPoints() int {
	if c.MaxRequestPoints > 0 {
		return c.MaxRequestPoints
	}
	return 1024
}

func (c *RouterConfig) shardTimeout() time.Duration {
	if c.ShardTimeout > 0 {
		return c.ShardTimeout
	}
	return 30 * time.Second
}

// replica is one addressable copy of a shard's sub-model.
type replica struct {
	addr   string
	alive  atomic.Bool
	lastOK atomic.Int64 // unix nanos of the last successful probe/request
}

// shardClient fans requests of one shard across its replicas.
type shardClient struct {
	id       int
	replicas []*replica
	hist     serve.Hist    // per-shard round-trip latency, feeds hedge delay
	next     atomic.Uint64 // round-robin start index
}

// alivePick returns the shard's replicas ordered for this attempt: alive
// ones first starting round-robin, dead ones appended as a last resort (a
// "dead" replica may have just recovered; trying it beats failing).
func (sc *shardClient) alivePick() []*replica {
	n := len(sc.replicas)
	start := int(sc.next.Add(1)) % n
	out := make([]*replica, 0, n)
	var dead []*replica
	for i := 0; i < n; i++ {
		rep := sc.replicas[(start+i)%n]
		if rep.alive.Load() {
			out = append(out, rep)
		} else {
			dead = append(dead, rep)
		}
	}
	return append(out, dead...)
}

// Router is the fleet front end: it owns the public /assign contract,
// scatter-gathers shard-internal /fleet/assign calls to the owning shards,
// and merges their candidates bit-identically to a single full-model
// server. Create with NewRouter, then Start (or serve Handler directly).
type Router struct {
	cfg      RouterConfig
	layouts  *lsh.Layouts
	place    *Placement
	shards   []*shardClient
	counters *mapreduce.Counters
	hist     serve.Hist
	client   *http.Client
	draining atomic.Bool

	mux     *http.ServeMux
	httpSrv *http.Server
	ln      net.Listener
	quit    chan struct{}
	probeWG sync.WaitGroup
	once    sync.Once
	shutErr error
}

// NewRouter validates cfg and builds the router (no socket yet, no probes
// running until Start).
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Manifest == nil {
		return nil, fmt.Errorf("fleet: router needs a manifest")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Shards) != cfg.Manifest.Shards {
		return nil, fmt.Errorf("fleet: manifest names %d shards, router got %d replica sets",
			cfg.Manifest.Shards, len(cfg.Shards))
	}
	place, err := cfg.Manifest.Placement()
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		layouts:  cfg.Manifest.Layouts(),
		place:    place,
		counters: mapreduce.NewCounters(),
		client:   &http.Client{Timeout: cfg.shardTimeout()},
		quit:     make(chan struct{}),
	}
	for s, addrs := range cfg.Shards {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("fleet: shard %d has no replicas", s)
		}
		sc := &shardClient{id: s}
		for _, a := range addrs {
			rep := &replica{addr: a}
			rep.alive.Store(true) // optimistic until a probe says otherwise
			rep.lastOK.Store(time.Now().UnixNano())
			sc.replicas = append(sc.replicas, rep)
		}
		r.shards = append(r.shards, sc)
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /assign", r.handleAssign)
	r.mux.HandleFunc("POST /ingest", r.handleIngest)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /statsz", r.handleStatsz)
	return r, nil
}

// Counters exposes the fleet.* counter set.
func (r *Router) Counters() *mapreduce.Counters { return r.counters }

// Handler returns the HTTP handler (for tests and embedding).
func (r *Router) Handler() http.Handler { return r.mux }

// CheckShards asks every replica's /statsz whether it serves the shard this
// router would route to it: a replica reporting a different shard id is a
// hard error (silent wrong answers), an unreachable one only a logged
// warning (it may still be starting).
func (r *Router) CheckShards(ctx context.Context) error {
	for _, sc := range r.shards {
		for _, rep := range sc.replicas {
			st, err := r.fetchStatsz(ctx, rep.addr)
			if err != nil {
				r.logf("fleet: shard %d replica %s unreachable for startup check: %v", sc.id, rep.addr, err)
				continue
			}
			if st.Shard == nil {
				return fmt.Errorf("fleet: replica %s reports no shard id (started without -shard?); expected shard %d", rep.addr, sc.id)
			}
			if *st.Shard != sc.id {
				return fmt.Errorf("fleet: replica %s serves shard %d, routed as shard %d", rep.addr, *st.Shard, sc.id)
			}
			if st.Model != nil && st.Model.N != 0 && st.Model.Dim != r.cfg.Manifest.Dim {
				return fmt.Errorf("fleet: replica %s serves dim %d, manifest says %d", rep.addr, st.Model.Dim, r.cfg.Manifest.Dim)
			}
		}
	}
	return nil
}

// Start listens on addr, starts the liveness prober, and serves until
// Shutdown.
func (r *Router) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	r.ln = ln
	r.httpSrv = &http.Server{
		Handler:           r.mux,
		ReadHeaderTimeout: routerTimeout(r.cfg.ReadHeaderTimeout, 5*time.Second),
		IdleTimeout:       routerTimeout(r.cfg.IdleTimeout, 2*time.Minute),
	}
	r.probeWG.Add(1)
	go r.prober()
	go r.httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
	r.logf("fleet: router listening on %s (%d shards, hedge=%s heartbeat=%s dead-after=%s)",
		ln.Addr(), len(r.shards), r.cfg.HedgeDelay, r.cfg.heartbeat(), r.cfg.deadAfter())
	return nil
}

// routerTimeout mirrors serve's knob convention: 0 default, negative off.
func routerTimeout(v, def time.Duration) time.Duration {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	}
	return def
}

// Addr returns the bound address after Start.
func (r *Router) Addr() string {
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Shutdown stops the listener and the prober. Safe to call more than once.
func (r *Router) Shutdown(ctx context.Context) error {
	r.once.Do(func() {
		r.draining.Store(true)
		if r.httpSrv != nil {
			r.shutErr = r.httpSrv.Shutdown(ctx)
		}
		close(r.quit)
		r.probeWG.Wait()
	})
	return r.shutErr
}

// prober keeps replica liveness fresh: every heartbeat it probes each
// replica's /healthz concurrently; success revives the replica, and a
// replica with no success inside DeadAfter is declared dead (the same
// heartbeat/dead-node discipline the DFS namenode applies to datanodes).
func (r *Router) prober() {
	defer r.probeWG.Done()
	tick := time.NewTicker(r.cfg.heartbeat())
	defer tick.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-tick.C:
		}
		var wg sync.WaitGroup
		for _, sc := range r.shards {
			for _, rep := range sc.replicas {
				wg.Add(1)
				go func(sc *shardClient, rep *replica) {
					defer wg.Done()
					r.probe(sc, rep)
				}(sc, rep)
			}
		}
		wg.Wait()
	}
}

func (r *Router) probe(sc *shardClient, rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.heartbeat())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+rep.addr+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	now := time.Now().UnixNano()
	if ok {
		rep.lastOK.Store(now)
		if !rep.alive.Swap(true) {
			r.logf("fleet: shard %d replica %s back alive", sc.id, rep.addr)
		}
		return
	}
	if now-rep.lastOK.Load() > int64(r.cfg.deadAfter()) && rep.alive.Swap(false) {
		r.counters.Add(CtrReplicaDeaths, 1)
		r.logf("fleet: shard %d replica %s declared dead", sc.id, rep.addr)
	}
}

// markFailed downs a replica immediately after a transport failure so the
// very next request fails over instead of re-timing-out; the prober revives
// it on its next successful /healthz.
func (r *Router) markFailed(sc *shardClient, rep *replica) {
	if rep.alive.Swap(false) {
		r.counters.Add(CtrReplicaDeaths, 1)
		r.logf("fleet: shard %d replica %s marked dead after request failure", sc.id, rep.addr)
	}
}

// callResult is one replica's answer to a shard call.
type callResult struct {
	attempt int
	resp    *serve.FleetAssignResponse
	status  int
	errMsg  string
	err     error
}

// callShard round-trips one /fleet/assign body to shard sc: round-robin
// over alive replicas, one hedged duplicate after the p99-based delay, and
// failover to the remaining replicas when an attempt fails. Returns the
// parsed reply, or the last failure's (status, message).
func (r *Router) callShard(sc *shardClient, body []byte) (*serve.FleetAssignResponse, int, string) {
	start := time.Now()
	reps := sc.alivePick()
	results := make(chan callResult, len(reps))
	attempt := 0
	send := func() {
		rep := reps[attempt]
		idx := attempt
		attempt++
		go func() {
			res := r.post(rep, body)
			res.attempt = idx
			if res.err != nil {
				r.markFailed(sc, rep)
			} else {
				rep.lastOK.Store(time.Now().UnixNano())
			}
			results <- res
		}()
	}
	send()
	var hedgeC <-chan time.Time
	hedgedAttempt := -1
	if d := r.hedgeDelay(sc); d > 0 && len(reps) > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	lastStatus, lastMsg := http.StatusBadGateway, "no replica reachable"
	sawShed := false
	for pending > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			if attempt < len(reps) {
				r.counters.Add(CtrHedges, 1)
				hedgedAttempt = attempt
				send()
				pending++
			}
		case res := <-results:
			pending--
			if res.err == nil && res.status == http.StatusOK {
				if res.attempt == hedgedAttempt {
					r.counters.Add(CtrHedgeWins, 1)
				}
				sc.hist.Record(time.Since(start))
				return res.resp, http.StatusOK, ""
			}
			if res.err != nil {
				lastStatus, lastMsg = http.StatusBadGateway, fmt.Sprintf("shard %d replica unreachable: %v", sc.id, res.err)
			} else {
				lastStatus, lastMsg = res.status, res.errMsg
				if res.status == http.StatusTooManyRequests {
					sawShed = true
				}
			}
			// Failover: try the next untried replica as soon as an attempt
			// has definitively failed and nothing else is in flight.
			if pending == 0 && attempt < len(reps) {
				r.counters.Add(CtrRetries, 1)
				send()
				pending++
			}
		}
	}
	if sawShed {
		// Prefer reporting shed over a transport error: the caller can
		// retry after backoff, which is the more actionable signal.
		return nil, http.StatusTooManyRequests, "overloaded: admission queue full"
	}
	return nil, lastStatus, lastMsg
}

// hedgeDelay resolves the hedge trigger for a shard: the configured fixed
// delay, or (by default) the shard's observed p99 once enough samples
// exist, clamped to [1ms, 2s].
func (r *Router) hedgeDelay(sc *shardClient) time.Duration {
	if r.cfg.HedgeDelay != 0 {
		if r.cfg.HedgeDelay < 0 {
			return 0
		}
		return r.cfg.HedgeDelay
	}
	if sc.hist.Count() < 64 {
		return 0 // too few samples for a meaningful p99
	}
	d := sc.hist.Quantile(0.99)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// post issues one /fleet/assign attempt against one replica.
func (r *Router) post(rep *replica, body []byte) callResult {
	resp, err := r.client.Post("http://"+rep.addr+"/fleet/assign", "application/json", bytes.NewReader(body))
	if err != nil {
		return callResult{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return callResult{status: resp.StatusCode, errMsg: string(bytes.TrimRight(msg, "\n"))}
	}
	var out serve.FleetAssignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return callResult{err: fmt.Errorf("bad shard reply: %w", err)}
	}
	return callResult{resp: &out, status: http.StatusOK}
}

// fetchStatsz GETs one replica's /statsz.
func (r *Router) fetchStatsz(ctx context.Context, addr string) (*serve.Statsz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statsz: HTTP %d", resp.StatusCode)
	}
	var st serve.Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// assignRequest / assignResponse mirror the single-node /assign wire format
// exactly; the conformance tests compare raw response bytes.
type assignRequest struct {
	Points [][]float64 `json:"points"`
}

type assignResponse struct {
	Results []serve.Assignment `json:"results"`
}

// handleAssign is the public fleet entry point. The contract — request
// shape, validation errors, 429/500 semantics, response bytes — matches a
// single full-model server exactly; only /statsz tells the difference.
func (r *Router) handleAssign(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var body assignRequest
	if !serve.DecodePoints(w, req, &body, &body.Points, r.cfg.Manifest.Dim, r.cfg.maxRequestPoints()) {
		return
	}
	start := time.Now()
	out, status, msg := r.assign(body.Points)
	r.hist.Record(time.Since(start))
	r.counters.Add(CtrRequests, 1)
	r.counters.Add(CtrPoints, int64(len(body.Points)))
	if status != 0 {
		switch {
		case status == http.StatusTooManyRequests:
			r.counters.Add(CtrShed, 1)
			w.Header().Set("Retry-After", "1")
		case status >= 500:
			r.counters.Add(CtrErrors, 1)
		}
		http.Error(w, msg, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(assignResponse{Results: out}) //nolint:errcheck
}

// shardBatch is the slice of a request routed to one shard.
type shardBatch struct {
	shard *shardClient
	idxs  []int // indices into the request's query list
	pts   [][]float64
	masks []uint64
	exact bool

	resp   *serve.FleetAssignResponse
	status int
	msg    string
}

// assign routes one validated batch: compute owners, scatter masked scans,
// merge, and broadcast the exact fallback for queries with no candidate
// anywhere. Returns the merged assignments or an HTTP (status, message).
func (r *Router) assign(pts [][]float64) ([]serve.Assignment, int, string) {
	nq := len(pts)
	// Owner masks: for query i, shardMasks[i][s] has bit j set when shard
	// s owns the bucket of layout j — query i's key k_j(q) resolved by the
	// placement (heavy-bucket overrides, then the ring). The shard scans
	// bucket k_j(q) minus rows already matched by an
	// earlier routed layout, so each global candidate is scanned exactly
	// once fleet-wide.
	batches := make(map[int]*shardBatch)
	var fanoutSum int64
	masks := make([]uint64, len(r.shards))
	var kb lsh.KeyBuf
	for i, p := range pts {
		for s := range masks {
			masks[s] = 0
		}
		r.layouts.Hash(&kb, points.Vector(p))
		for j := 0; j < r.layouts.M(); j++ {
			masks[r.place.Owner(string(kb.Key(j)))] |= 1 << uint(j)
		}
		for s, mask := range masks {
			if mask == 0 {
				continue
			}
			fanoutSum++
			b := batches[s]
			if b == nil {
				b = &shardBatch{shard: r.shards[s]}
				batches[s] = b
			}
			b.idxs = append(b.idxs, i)
			b.pts = append(b.pts, p)
			b.masks = append(b.masks, mask)
		}
	}
	r.counters.Add(CtrShardsPerQuery, fanoutSum)

	if status, msg := r.scatter(batches); status != 0 {
		return nil, status, msg
	}

	// Merge: per query, the winner across owning shards is the candidate
	// with the smallest exact squared distance, ties to the lowest global
	// point ID — precisely the single-node scan order rule.
	out := make([]serve.Assignment, nq)
	type best struct {
		have bool
		res  serve.FleetResult
	}
	bests := make([]best, nq)
	for _, b := range batches {
		for k, i := range b.idxs {
			fr := b.resp.Results[k]
			if fr.NoCand || fr.NoFinite {
				continue
			}
			if !bests[i].have || less(fr, bests[i].res) {
				bests[i] = best{true, fr}
			}
		}
	}

	// Exact fallback: a query every owning shard reported candidate-less
	// would full-scan on a single node; broadcast that scan to all shards
	// (each owns a disjoint row set plus the replicated peaks) and merge
	// the same way.
	var fbIdxs []int
	for i := range bests {
		if !bests[i].have {
			fbIdxs = append(fbIdxs, i)
		}
	}
	if len(fbIdxs) > 0 {
		r.counters.Add(CtrFallbackBroadcasts, 1)
		fb := make(map[int]*shardBatch)
		for s, sc := range r.shards {
			b := &shardBatch{shard: sc, exact: true, idxs: fbIdxs}
			for _, i := range fbIdxs {
				b.pts = append(b.pts, pts[i])
			}
			fb[s] = b
		}
		if status, msg := r.scatter(fb); status != 0 {
			return nil, status, msg
		}
		for _, b := range fb {
			for k, i := range b.idxs {
				fr := b.resp.Results[k]
				if fr.NoCand || fr.NoFinite {
					continue
				}
				if !bests[i].have || less(fr, bests[i].res) {
					bests[i] = best{true, fr}
				}
			}
		}
		for _, i := range fbIdxs {
			if !bests[i].have {
				// Every shard's exact scan came back non-finite — the exact
				// error a single node reports for its first failing query.
				return nil, http.StatusInternalServerError, serve.ErrNoFinite.Error()
			}
		}
	}
	for i := range bests {
		out[i] = bests[i].res.Assignment
	}
	return out, 0, ""
}

// less orders fleet candidates: smaller exact squared distance first, ties
// to the lower global point ID.
func less(a, b serve.FleetResult) bool {
	if a.D2 != b.D2 {
		return a.D2 < b.D2
	}
	return a.Nearest < b.Nearest
}

// scatter round-trips every shard batch concurrently, filling resp/status.
// Returns the first failure in shard order (deterministic under tests).
func (r *Router) scatter(batches map[int]*shardBatch) (int, string) {
	var wg sync.WaitGroup
	for _, b := range batches {
		wg.Add(1)
		go func(b *shardBatch) {
			defer wg.Done()
			body, err := json.Marshal(serve.FleetAssignRequest{Points: b.pts, Masks: b.masks, Exact: b.exact})
			if err != nil {
				b.status, b.msg = http.StatusInternalServerError, err.Error()
				return
			}
			b.resp, b.status, b.msg = r.callShard(b.shard, body)
		}(b)
	}
	wg.Wait()
	ids := make([]int, 0, len(batches))
	for s := range batches {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	for _, s := range ids {
		b := batches[s]
		if b.status != http.StatusOK {
			return b.status, b.msg
		}
		if len(b.resp.Results) != len(b.idxs) {
			return http.StatusBadGateway, fmt.Sprintf("shard %d answered %d results for %d queries", s, len(b.resp.Results), len(b.idxs))
		}
	}
	return 0, ""
}

// Fanout reports the mean owning-shard count per routed query so far.
func (r *Router) Fanout() float64 {
	pts := r.counters.Get(CtrPoints)
	if pts == 0 {
		return 0
	}
	return float64(r.counters.Get(CtrShardsPerQuery)) / float64(pts)
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if r.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// ReplicaInfo is one replica's row in the router's /statsz.
type ReplicaInfo struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
}

// RouterStatsz is the router's /statsz document: its own fleet.* counters,
// request latency, per-replica liveness, and a fleet-wide rollup summing
// the serve.* counters of every reachable replica.
type RouterStatsz struct {
	Shards     int               `json:"shards"`
	Counters   map[string]int64  `json:"counters"`
	Latency    serve.LatencyInfo `json:"latency"`
	FanoutMean float64           `json:"fanout_mean"`
	Replicas   []ReplicaInfo     `json:"replicas"`
	// Rollup sums serve.* counters across all reachable replicas;
	// RollupMissing counts replicas that could not be polled (their
	// contribution is absent, not zero).
	Rollup        map[string]int64 `json:"rollup"`
	RollupMissing int              `json:"rollup_missing,omitempty"`
	Draining      bool             `json:"draining"`
}

// Stats snapshots the router state, polling every replica for the rollup.
func (r *Router) Stats(ctx context.Context) RouterStatsz {
	st := RouterStatsz{
		Shards:   len(r.shards),
		Counters: r.counters.Snapshot(),
		Latency: serve.LatencyInfo{
			Count: r.hist.Count(),
			P50us: r.hist.Quantile(0.50).Microseconds(),
			P90us: r.hist.Quantile(0.90).Microseconds(),
			P99us: r.hist.Quantile(0.99).Microseconds(),
		},
		FanoutMean: r.Fanout(),
		Rollup:     map[string]int64{},
		Draining:   r.draining.Load(),
	}
	type polled struct {
		info ReplicaInfo
		st   *serve.Statsz
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var rows []polled
	for _, sc := range r.shards {
		for _, rep := range sc.replicas {
			wg.Add(1)
			go func(sc *shardClient, rep *replica) {
				defer wg.Done()
				p := polled{info: ReplicaInfo{Shard: sc.id, Addr: rep.addr, Alive: rep.alive.Load()}}
				p.st, _ = r.fetchStatsz(ctx, rep.addr)
				mu.Lock()
				rows = append(rows, p)
				mu.Unlock()
			}(sc, rep)
		}
	}
	wg.Wait()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].info.Shard != rows[j].info.Shard {
			return rows[i].info.Shard < rows[j].info.Shard
		}
		return rows[i].info.Addr < rows[j].info.Addr
	})
	for _, p := range rows {
		st.Replicas = append(st.Replicas, p.info)
		if p.st == nil {
			st.RollupMissing++
			continue
		}
		for k, v := range p.st.Counters {
			st.Rollup[k] += v
		}
	}
	return st
}

func (r *Router) handleStatsz(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := context.WithTimeout(req.Context(), 5*time.Second)
	defer cancel()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Stats(ctx)) //nolint:errcheck
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		r.cfg.Log(format, args...)
	}
}

// FanoutBound returns the theoretical fan-out ceiling: a query touches at
// most min(M, shards) shards.
func (r *Router) FanoutBound() int {
	m := r.layouts.M()
	if s := len(r.shards); s < m {
		return s
	}
	return m
}
