package fleet

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
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
	// CtrShardsPerQuery sums the shard requests per query over both
	// rounds; divide by CtrPoints for the mean fan-out. Strictly below the
	// shard count means routing is bounded, not broadcast.
	CtrShardsPerQuery = "fleet.shards.per.query"
	// CtrCertified counts queries answered in the first round: the owner of
	// the query's certifying bucket proved its answer final.
	CtrCertified = "fleet.certified"
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
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// The router's liveness and hedging timings (README "Configuration
// reference" states them). Variables only so tests can shorten them.
var (
	// heartbeat is the replica /healthz probe interval.
	heartbeat = time.Second
	// deadAfter declares a replica dead when no probe or request has
	// succeeded for this long; dead replicas receive no traffic until a
	// probe succeeds again.
	deadAfter = 5 * time.Second
	// hedgeMinSamples is the shard round-trips recorded before a shard's
	// observed p99 sets its hedge delay; until then no request is hedged.
	hedgeMinSamples int64 = 64
)

// shardTimeout bounds one shard round-trip.
const shardTimeout = 30 * time.Second

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
// server. Its HTTP front — listener, drain, /healthz, /statsz — is a
// serve.Front, the single-node server's. Create with NewRouter, then Start
// (or serve Handler directly); Shutdown returns once the HTTP loop and the
// liveness prober have.
type Router struct {
	*serve.Front
	cfg      RouterConfig
	layouts  *lsh.Layouts
	place    *Placement
	shards   []*shardClient
	counters *mapreduce.Counters
	hist     serve.Hist
	client   *http.Client
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
		client:   &http.Client{Timeout: shardTimeout},
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
	r.Front = serve.NewFront(nil, func(ctx context.Context) any { return r.Stats(ctx) })
	r.Handle("POST /assign", r.handleAssign)
	r.Handle("POST /ingest", r.handleIngest)
	return r, nil
}

// Counters exposes the fleet.* counter set.
func (r *Router) Counters() *mapreduce.Counters { return r.counters }

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

// Start listens on addr, starts the liveness prober beside the HTTP loop,
// and serves until Shutdown (serve.Front.Start).
func (r *Router) Start(addr string) error {
	if err := r.Front.Start(addr, r.prober); err != nil {
		return err
	}
	r.logf("fleet: router listening on %s (%d shards, heartbeat=%s dead-after=%s)",
		r.Addr(), len(r.shards), heartbeat, deadAfter)
	return nil
}

// prober keeps replica liveness fresh until quit closes: every heartbeat it
// probes each replica's /healthz concurrently; success revives the replica,
// and a replica with no success inside deadAfter is declared dead.
func (r *Router) prober(quit <-chan struct{}) {
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-quit:
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
	ctx, cancel := context.WithTimeout(context.Background(), heartbeat)
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
	if now-rep.lastOK.Load() > int64(deadAfter) && rep.alive.Swap(false) {
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

// callResult is one replica's answer to a shard call: its per-point
// results, or the failure's status and message, or a transport error.
type callResult[R any] struct {
	attempt int
	results []R
	status  int
	errMsg  string
	err     error
}

// callShard round-trips one body to path on shard sc: round-robin over
// alive replicas, one hedged duplicate after the p99-based delay, and
// failover to the remaining replicas when an attempt fails — a shard with
// one replica gets exactly one attempt. Returns the reply's per-point
// results, or the last failure's (status, message), a shed preferred. Every
// attempt runs under ctx, and the ones still in flight when callShard
// returns — a hedge loser — are cancelled. An attempt that failed because
// ctx ended (the client went away, or callShard itself cancelled it) says
// nothing about its replica: it marks nothing dead and is not retried.
func callShard[R any](ctx context.Context, r *Router, sc *shardClient, path string, body []byte) ([]R, int, string) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	reps := sc.alivePick()
	results := make(chan callResult[R], len(reps))
	attempt := 0
	send := func() {
		rep := reps[attempt]
		idx := attempt
		attempt++
		go func() {
			res := post[R](ctx, r, rep, path, body)
			res.attempt = idx
			switch {
			case res.err == nil:
				rep.lastOK.Store(time.Now().UnixNano())
			case ctx.Err() == nil:
				r.markFailed(sc, rep)
			}
			results <- res
		}()
	}
	send()
	var hedgeC <-chan time.Time
	hedgedAttempt := -1
	if d := hedgeDelay(sc); d > 0 && len(reps) > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	lastStatus, lastMsg := http.StatusBadGateway, "no replica reachable"
	sawShed, shedMsg := false, ""
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
			if res.err != nil && ctx.Err() != nil {
				return nil, http.StatusServiceUnavailable, "request cancelled"
			}
			if res.err == nil && res.status == http.StatusOK {
				if res.attempt == hedgedAttempt {
					r.counters.Add(CtrHedgeWins, 1)
				}
				sc.hist.Record(time.Since(start))
				return res.results, http.StatusOK, ""
			}
			if res.err != nil {
				lastStatus, lastMsg = http.StatusBadGateway, fmt.Sprintf("shard %d replica unreachable: %v", sc.id, res.err)
			} else {
				lastStatus, lastMsg = res.status, res.errMsg
				if res.status == http.StatusTooManyRequests {
					sawShed, shedMsg = true, res.errMsg
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
		return nil, http.StatusTooManyRequests, shedMsg
	}
	return nil, lastStatus, lastMsg
}

// hedgeDelay resolves the hedge trigger for a shard: its observed p99 once
// hedgeMinSamples round-trips exist, clamped to [1ms, 2s]; 0 (no hedge)
// before that.
func hedgeDelay(sc *shardClient) time.Duration {
	if sc.hist.Count() < hedgeMinSamples {
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

// post issues one attempt of a shard call against one replica under ctx.
func post[R any](ctx context.Context, r *Router, rep *replica, path string, body []byte) callResult[R] {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+rep.addr+path, bytes.NewReader(body))
	if err != nil {
		return callResult[R]{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return callResult[R]{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return callResult[R]{status: resp.StatusCode, errMsg: string(bytes.TrimRight(msg, "\n"))}
	}
	var out struct {
		Results []R `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return callResult[R]{err: fmt.Errorf("bad shard reply: %w", err)}
	}
	return callResult[R]{results: out.Results, status: http.StatusOK}
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

// handleAssign is the public fleet entry point. The contract — request
// shape, validation errors, 429/500 semantics, response bytes — matches a
// single full-model server exactly; only /statsz tells the difference.
func (r *Router) handleAssign(w http.ResponseWriter, req *http.Request) {
	if r.Refuse(w) {
		return
	}
	var body serve.AssignRequest
	if !serve.DecodePoints(w, req, &body, &body.Points, r.cfg.Manifest.Dim) {
		return
	}
	start := time.Now()
	out, status, msg := r.assign(req.Context(), body.Points)
	r.hist.Record(time.Since(start))
	r.counters.Add(CtrRequests, 1)
	r.counters.Add(CtrPoints, int64(len(body.Points)))
	if status != 0 {
		r.fail(w, req, status, msg, CtrShed, CtrErrors)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(serve.AssignResponse{Results: out}) //nolint:errcheck
}

// fail answers a request the router could not serve: a shed (429) is
// answered as a single node sheds and counts in shed, a 5xx counts in errs.
// A client that went away gets nothing — nobody reads the answer — and
// counts in neither.
func (r *Router) fail(w http.ResponseWriter, req *http.Request, status int, msg, shed, errs string) {
	if req.Context().Err() != nil {
		return
	}
	switch {
	case status == http.StatusTooManyRequests:
		r.counters.Add(shed, 1)
		serve.Shed(w, msg)
		return
	case status >= 500:
		r.counters.Add(errs, 1)
	}
	http.Error(w, msg, status)
}

// shardBatch is the slice of a request routed to one shard: the body it
// posts, and the shard's per-point results — serve.FleetResult from
// /fleet/assign, serve.IngestResult from /ingest — or its failure.
type shardBatch[R any] struct {
	shard *shardClient
	idxs  []int // indices into the request's point list
	req   serve.FleetAssignRequest

	results []R
	status  int
	msg     string
}

// add appends point i to the batch of shard s, creating it on first use.
func add[R any](r *Router, batches []*shardBatch[R], s, i int, p []float64) *shardBatch[R] {
	b := batches[s]
	if b == nil {
		b = &shardBatch[R]{shard: r.shards[s]}
		batches[s] = b
	}
	b.idxs = append(b.idxs, i)
	b.req.Points = append(b.req.Points, p)
	return b
}

// assign routes one validated batch in two rounds, merges, and broadcasts
// the exact fallback for queries with no candidate anywhere. Returns the
// merged assignments or an HTTP (status, message).
//
// Owner masks: for query i, masks[i·S + s] has bit j set when shard s owns
// the bucket of layout j — query i's key k_j(q) resolved by the placement
// (the manifest's overrides, then the ring). The shard orders the query's
// buckets cyclically from its certifying layout and evaluates only the rows
// whose first matching layout in that order is in its mask, so each row is
// evaluated at most once fleet-wide, and the winner by its owner.
//
// Round 1 asks only the owner of the certifying bucket, with its full mask.
// That shard holds the whole bucket, so when it certifies, its answer is the
// single node's and final. Round 2 asks every other owning shard about the
// uncertified queries, capped at round 1's best squared distance: a shard
// then evaluates only rows that could still win, and the certifying bucket's
// rows, which round 1 swept, are skipped by the rotation.
//
// ctx is the client's request: its end cancels every shard call in flight.
func (r *Router) assign(ctx context.Context, pts [][]float64) ([]serve.Assignment, int, string) {
	nq, ns := len(pts), len(r.shards)
	masks := make([]uint64, nq*ns)
	first := make([]int, nq)
	round1 := make([]*shardBatch[serve.FleetResult], ns)
	var kb lsh.KeyBuf
	for i, p := range pts {
		r.layouts.Hash(&kb, points.Vector(p))
		m := masks[i*ns:][:ns]
		for j := 0; j < r.layouts.M(); j++ {
			m[r.place.Owner(string(kb.Key(j)))] |= 1 << uint(j)
		}
		_, c := r.layouts.GuaranteeRadius(&kb)
		first[i] = r.place.Owner(string(kb.Key(c)))
		b := add(r, round1, first[i], i, p)
		b.req.Masks = append(b.req.Masks, m[first[i]])
	}
	r.counters.Add(CtrShardsPerQuery, int64(nq))
	if status, msg := scatter(ctx, r, "/fleet/assign", round1); status != 0 {
		return nil, status, msg
	}

	// Merge: per query, the winner across owning shards is the candidate
	// with the smallest exact squared distance, ties to the lowest global
	// point ID — precisely the single-node scan order rule.
	type best struct {
		have bool
		res  serve.FleetResult
	}
	bests := make([]best, nq)
	merge := func(batches []*shardBatch[serve.FleetResult]) {
		for _, b := range batches {
			if b == nil {
				continue
			}
			for k, i := range b.idxs {
				fr := b.results[k]
				if fr.NoCand || fr.NoFinite {
					continue
				}
				if !bests[i].have || less(fr, bests[i].res) {
					bests[i] = best{true, fr}
				}
			}
		}
	}
	merge(round1)

	round2 := make([]*shardBatch[serve.FleetResult], ns)
	var certified, asked int64
	for i, p := range pts {
		if bests[i].res.Certified {
			certified++
			continue
		}
		// No round-1 answer: a bound every finite squared distance ties or
		// beats (FleetAssignRequest.Bounds), since JSON has no +Inf.
		bound := math.MaxFloat64
		if bests[i].have {
			bound = bests[i].res.D2
		}
		for s, mask := range masks[i*ns:][:ns] {
			if mask != 0 && s != first[i] {
				b := add(r, round2, s, i, p)
				b.req.Masks = append(b.req.Masks, mask)
				b.req.Bounds = append(b.req.Bounds, bound)
				asked++
			}
		}
	}
	r.counters.Add(CtrCertified, certified)
	r.counters.Add(CtrShardsPerQuery, asked)
	if status, msg := scatter(ctx, r, "/fleet/assign", round2); status != 0 {
		return nil, status, msg
	}
	merge(round2)

	// Exact fallback: a query every owning shard reported candidate-less
	// would full-scan on a single node; broadcast that scan to all shards
	// and merge the same way. Rows are replicated, not partitioned, so a
	// row may be scanned on several shards; the merge is still exact
	// because every row lies on at least one shard and the (d², ID) merge
	// is idempotent.
	var fbIdxs []int
	for i := range bests {
		if !bests[i].have {
			fbIdxs = append(fbIdxs, i)
		}
	}
	if len(fbIdxs) > 0 {
		r.counters.Add(CtrFallbackBroadcasts, 1)
		fb := make([]*shardBatch[serve.FleetResult], ns)
		for s := range fb {
			for _, i := range fbIdxs {
				add(r, fb, s, i, pts[i])
			}
			fb[s].req.Exact = true
		}
		if status, msg := scatter(ctx, r, "/fleet/assign", fb); status != 0 {
			return nil, status, msg
		}
		merge(fb)
		for _, i := range fbIdxs {
			if !bests[i].have {
				// Every shard's exact scan came back non-finite — the exact
				// error a single node reports for its first failing query.
				return nil, http.StatusInternalServerError, serve.ErrNoFinite.Error()
			}
		}
	}
	out := make([]serve.Assignment, nq)
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

// scatter posts every shard's batch to path concurrently under ctx,
// filling in its results or failure. Returns the first failure in shard
// order (deterministic under tests), or 0 when every shard answered one
// result per point.
func scatter[R any](ctx context.Context, r *Router, path string, batches []*shardBatch[R]) (int, string) {
	var wg sync.WaitGroup
	for _, b := range batches {
		if b == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(b.req)
			if err != nil {
				b.status, b.msg = http.StatusInternalServerError, err.Error()
				return
			}
			b.results, b.status, b.msg = callShard[R](ctx, r, b.shard, path, body)
		}()
	}
	wg.Wait()
	for s, b := range batches {
		if b == nil {
			continue
		}
		if b.status != http.StatusOK {
			return b.status, b.msg
		}
		if len(b.results) != len(b.idxs) {
			return http.StatusBadGateway, fmt.Sprintf("shard %d acked %d results for %d points", s, len(b.results), len(b.idxs))
		}
	}
	return 0, ""
}

// fanout reports the mean shard requests per routed query so far, over
// both rounds.
func (r *Router) fanout() float64 {
	pts := r.counters.Get(CtrPoints)
	if pts == 0 {
		return 0
	}
	return float64(r.counters.Get(CtrShardsPerQuery)) / float64(pts)
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
		Shards:     len(r.shards),
		Counters:   r.counters.Snapshot(),
		Latency:    r.hist.Latency(),
		FanoutMean: r.fanout(),
		Rollup:     map[string]int64{},
		Draining:   r.Draining(),
	}
	type polled struct {
		info ReplicaInfo
		st   *serve.Statsz
	}
	var rows []polled
	for _, sc := range r.shards {
		for _, rep := range sc.replicas {
			rows = append(rows, polled{info: ReplicaInfo{Shard: sc.id, Addr: rep.addr, Alive: rep.alive.Load()}})
		}
	}
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i].st, _ = r.fetchStatsz(ctx, rows[i].info.Addr)
		}()
	}
	wg.Wait()
	slices.SortFunc(rows, func(a, b polled) int {
		return cmp.Or(cmp.Compare(a.info.Shard, b.info.Shard), strings.Compare(a.info.Addr, b.info.Addr))
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
