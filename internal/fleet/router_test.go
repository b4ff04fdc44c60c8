package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/lsh"
	"repro/internal/points"
	"repro/internal/serve"
)

// roundOne replays the router's first round for p against the shard
// engines: the per-shard layout masks, the owner of p's certifying bucket,
// and that shard's answer under its own mask.
func roundOne(mf *fleet.Manifest, place *fleet.Placement, engs []*serve.Engine, p []float64) (masks []uint64, first int, a serve.Assignment, err error) {
	l := mf.Layouts()
	var kb lsh.KeyBuf
	l.Hash(&kb, p)
	masks = make([]uint64, mf.Shards)
	for j := 0; j < l.M(); j++ {
		masks[place.Owner(string(kb.Key(j)))] |= 1 << uint(j)
	}
	_, c := l.GuaranteeRadius(&kb)
	first = place.Owner(string(kb.Key(c)))
	out, errs, _ := engs[first].AssignBatchOpts([]points.Vector{p}, serve.BatchOpts{Masks: masks[first : first+1]})
	return masks, first, out[0], errs[0]
}

// TestFleetRound2CapsEachQuery batches a query the first round found no
// candidate for (so the second round cannot cap it) with one it found an
// uncertified answer for, both asked again of a common shard. Each query's
// cap is its own: the shards evaluate exactly the rows the two 1-point
// requests do, and all three answers are byte-equal to a single node's.
func TestFleetRound2CapsEachQuery(t *testing.T) {
	mdl := trainModel(t, 1500, 4)
	const shards = 3
	subs, mf, err := fleet.Partition(mdl, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	place, err := mf.Placement()
	if err != nil {
		t.Fatal(err)
	}
	engs := make([]*serve.Engine, shards)
	for s := range subs {
		if engs[s], err = serve.NewEngine(subs[s], serve.PrecF64); err != nil {
			t.Fatal(err)
		}
	}
	full, err := serve.NewEngine(mdl, serve.PrecF64)
	if err != nil {
		t.Fatal(err)
	}

	// Query a: no first-round candidate, an LSH answer on a single node.
	// Query b: a first-round answer that does not certify, asked again of a
	// shard that a's second round asks too and that evaluates more rows for
	// b uncapped than capped at that answer.
	scanned := func(s int, p []float64, mask uint64, bounds []float64) int64 {
		_, _, st := engs[s].AssignBatchOpts([]points.Vector{p}, serve.BatchOpts{Masks: []uint64{mask}, Bounds: bounds})
		return st.Scanned
	}
	var a, b []float64
	var maskA []uint64
	var firstA int
	for i := 0; i < mdl.N() && b == nil; i++ {
		for _, off := range [][2]float64{{1, 0}, {0, 2}, {-3, 1}, {2, -4}, {-6, -6}} {
			p := []float64{mdl.Row(i)[0] + off[0]*mdl.Dc, mdl.Row(i)[1] + off[1]*mdl.Dc}
			masks, first, got, err := roundOne(mf, place, engs, p)
			switch {
			case a == nil && err == serve.ErrNoCandidates:
				if single, _, _ := full.Assign(p, false); !single.Exact {
					a, maskA, firstA = p, masks, first
				}
			case a != nil && err == nil && !got.Certified:
				for s, m := range masks {
					if m != 0 && s != first && maskA[s] != 0 && s != firstA &&
						scanned(s, p, m, nil) > scanned(s, p, m, []float64{got.Dist2}) {
						b = p
					}
				}
			}
			if b != nil {
				break
			}
		}
	}
	if b == nil {
		t.Fatal("no query pair with an uncapped and a capped second round")
	}

	single := serve.New(serve.Config{})
	if err := single.SetModel(mdl); err != nil {
		t.Fatal(err)
	}
	if err := single.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown(context.Background()) //nolint:errcheck
	router, srvs := startFleet(t, mdl, shards, 1, nil)
	candidates := func() (n int64) {
		for _, reps := range srvs {
			n += reps[0].Counters().Get(serve.CtrCandidates)
		}
		return n
	}
	ask := func(pts ...[]float64) int64 {
		t.Helper()
		body, _ := json.Marshal(map[string][][]float64{"points": pts})
		before := candidates()
		sc, sb := rawAssign(t, single.Addr(), string(body))
		fc, fb := rawAssign(t, router.Addr(), string(body))
		if sc != http.StatusOK || sc != fc || sb != fb {
			t.Fatalf("%v: single (%d) %q, fleet (%d) %q", pts, sc, sb, fc, fb)
		}
		return candidates() - before
	}
	alone := ask(a) + ask(b)
	if both := ask(a, b); both != alone {
		t.Fatalf("shards evaluated %d rows for the 2-point batch, %d for its points alone", both, alone)
	}
	if router.Counters().Get(fleet.CtrFallbackBroadcasts) != 0 {
		t.Fatal("a query with LSH candidates fell back to the broadcast")
	}
}

// blockingShard is a stand-in replica whose /fleet/assign and /ingest block
// until their request's context ends, counting the calls that started and
// ended.
type blockingShard struct {
	started, ended atomic.Int64
	begun          chan struct{}
	quit           chan struct{}
	srv            *httptest.Server
}

func newBlockingShard(t *testing.T) *blockingShard {
	// begun is sized past the calls one test makes, so a handler never
	// blocks on it when the test reads only the first.
	bs := &blockingShard{begun: make(chan struct{}, 64), quit: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	block := func(w http.ResponseWriter, r *http.Request) {
		// The server watches the connection for a hang-up, which ends the
		// context, only once the body is read.
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		bs.started.Add(1)
		bs.begun <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-bs.quit:
		}
		bs.ended.Add(1)
	}
	mux.HandleFunc("POST /fleet/assign", block)
	mux.HandleFunc("POST /ingest", block)
	bs.srv = httptest.NewServer(mux)
	t.Cleanup(func() {
		close(bs.quit)
		bs.srv.Close()
	})
	return bs
}

// waitEnded waits until every call the shard started has ended.
func (bs *blockingShard) waitEnded(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bs.ended.Load() < bs.started.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d of %d blocked shard calls never saw their context end", what, bs.started.Load()-bs.ended.Load(), bs.started.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fastShard is a stand-in replica that certifies every query at once.
func fastShard(t *testing.T) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("POST /fleet/assign", func(w http.ResponseWriter, r *http.Request) {
		var req serve.FleetAssignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := serve.FleetAssignResponse{Results: make([]serve.FleetResult, len(req.Points))}
		for i := range out.Results {
			out.Results[i] = serve.FleetResult{D2: 1, Certified: true}
		}
		json.NewEncoder(w).Encode(out) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// startStubRouter starts a router over one shard with the given replica
// addresses.
func startStubRouter(t *testing.T, addrs ...string) *fleet.Router {
	t.Helper()
	mf := &fleet.Manifest{Dim: 2, Shards: 1, M: 3, Pi: 2, W: 4, Seed: 1, KeyFormat: fleet.KeyFormat}
	router, err := fleet.NewRouter(fleet.RouterConfig{Manifest: mf, Shards: [][]string{addrs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Shutdown(context.Background()) }) //nolint:errcheck
	return router
}

// TestRouterCancelsShardCalls: a shard call lives no longer than the
// request it serves. A client that hangs up ends the call it was waiting on,
// on /assign and on /ingest, and a hedge that wins ends the attempt it
// raced; none of them counts against the replica or as a retry.
func TestRouterCancelsShardCalls(t *testing.T) {
	const body = `{"points":[[1,2]]}`
	addr := func(s *httptest.Server) string { return strings.TrimPrefix(s.URL, "http://") }

	// hangUp sends body to the router's path, hangs up once the shard
	// holds the call, and checks that the shard saw the call end.
	hangUp := func(t *testing.T, path string) {
		slow := newBlockingShard(t)
		router := startStubRouter(t, addr(slow.srv))
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+router.Addr()+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
				t.Error("a cancelled request was answered")
			}
		}()
		select {
		case <-slow.begun:
		case <-time.After(5 * time.Second):
			t.Fatal("the shard never saw the request")
		}
		cancel()
		wg.Wait()
		slow.waitEnded(t, path+" client cancel")
		if d, r := router.Counters().Get(fleet.CtrReplicaDeaths), router.Counters().Get(fleet.CtrRetries); d != 0 || r != 0 {
			t.Fatalf("a client cancel on %s counted %d replica deaths and %d retries", path, d, r)
		}
	}
	t.Run("client cancel", func(t *testing.T) { hangUp(t, "/assign") })
	t.Run("ingest client cancel", func(t *testing.T) { hangUp(t, "/ingest") })

	t.Run("hedge won", func(t *testing.T) {
		fleet.SetHedgeMinSamples(t, 0)
		slow := newBlockingShard(t)
		router := startStubRouter(t, addr(slow.srv), addr(fastShard(t)))
		for i := 0; i < 6; i++ {
			if code, got := rawAssign(t, router.Addr(), body); code != http.StatusOK {
				t.Fatalf("request %d: HTTP %d %s", i, code, got)
			}
		}
		if slow.started.Load() == 0 || router.Counters().Get(fleet.CtrHedgeWins) == 0 {
			t.Fatalf("the blocked replica got %d calls and the hedge won %d times; want both > 0", slow.started.Load(), router.Counters().Get(fleet.CtrHedgeWins))
		}
		slow.waitEnded(t, "hedge won")
		if d, r := router.Counters().Get(fleet.CtrReplicaDeaths), router.Counters().Get(fleet.CtrRetries); d != 0 || r != 0 {
			t.Fatalf("hedge losers counted %d replica deaths and %d retries", d, r)
		}
	})
}

// stubShard is a stand-in replica whose /fleet/assign and /ingest run
// handle, counting the calls.
func stubShard(t *testing.T, handle http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	count := func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		handle(w, r)
	}
	mux.HandleFunc("POST /fleet/assign", count)
	mux.HandleFunc("POST /ingest", count)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestRouterShardFailures drives the shed and dead-shard paths of both
// router endpoints through a one-replica shard. A shard that sheds makes
// the router shed: 429, Retry-After 1, the shard's message, one count in
// the endpoint's shed counter. A shard whose replica drops the connection
// makes the router answer 502 naming the shard, count an error and a
// replica death, and send exactly the one call: no retry and no hedge, with
// hedging armed from the first request. (A client that hangs up marks no
// replica dead: TestRouterCancelsShardCalls.)
func TestRouterShardFailures(t *testing.T) {
	const body = `{"points":[[1,2]]}`
	addr := func(s *httptest.Server) string { return strings.TrimPrefix(s.URL, "http://") }
	post := func(t *testing.T, router *fleet.Router, path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post("http://"+router.Addr()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp, string(msg)
	}
	for _, ep := range []struct {
		path, shed, errs string
		shedMsg          string // what a real shard says when it sheds
	}{
		{"/assign", fleet.CtrShed, fleet.CtrErrors, "overloaded: admission queue full"},
		{"/ingest", fleet.CtrIngestShed, fleet.CtrIngestErrors, serve.ErrDeltaFull.Error()},
	} {
		t.Run("shed "+ep.path, func(t *testing.T) {
			shard, calls := stubShard(t, func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, ep.shedMsg, http.StatusTooManyRequests)
			})
			router := startStubRouter(t, addr(shard))
			resp, msg := post(t, router, ep.path)
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" || !strings.Contains(msg, ep.shedMsg) {
				t.Fatalf("HTTP %d Retry-After %q %q, want 429 Retry-After 1 %q", resp.StatusCode, resp.Header.Get("Retry-After"), msg, ep.shedMsg)
			}
			c := router.Counters()
			if c.Get(ep.shed) != 1 || c.Get(ep.errs) != 0 || c.Get(fleet.CtrReplicaDeaths) != 0 || calls.Load() != 1 {
				t.Fatalf("%s = %d, %s = %d, %s = %d, shard calls %d; want 1, 0, 0, 1", ep.shed, c.Get(ep.shed),
					ep.errs, c.Get(ep.errs), fleet.CtrReplicaDeaths, c.Get(fleet.CtrReplicaDeaths), calls.Load())
			}
		})
		t.Run("dead shard "+ep.path, func(t *testing.T) {
			fleet.SetHedgeMinSamples(t, 0)
			shard, calls := stubShard(t, func(w http.ResponseWriter, _ *http.Request) {
				conn, _, err := http.NewResponseController(w).Hijack()
				if err == nil {
					conn.Close()
				}
			})
			router := startStubRouter(t, addr(shard))
			resp, msg := post(t, router, ep.path)
			if resp.StatusCode != http.StatusBadGateway || !strings.Contains(msg, "shard 0") {
				t.Fatalf("HTTP %d %q, want 502 naming shard 0", resp.StatusCode, msg)
			}
			c := router.Counters()
			if c.Get(ep.errs) != 1 || c.Get(fleet.CtrReplicaDeaths) != 1 || calls.Load() != 1 ||
				c.Get(fleet.CtrRetries) != 0 || c.Get(fleet.CtrHedges) != 0 {
				t.Fatalf("%s = %d, %s = %d, shard calls %d, %s = %d, %s = %d; want 1, 1, 1, 0, 0", ep.errs, c.Get(ep.errs),
					fleet.CtrReplicaDeaths, c.Get(fleet.CtrReplicaDeaths), calls.Load(),
					fleet.CtrRetries, c.Get(fleet.CtrRetries), fleet.CtrHedges, c.Get(fleet.CtrHedges))
			}
		})
	}
}
