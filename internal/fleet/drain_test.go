package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/serve"
)

// blockingIngest is an ingest backend whose first write signals entered
// and then waits until release closes; it implements nothing else.
type blockingIngest struct {
	serve.IngestBackend
	once             *sync.Once
	entered, release chan struct{}
}

func (b blockingIngest) IngestPoints(pts [][]float64) ([]serve.IngestResult, error) {
	b.once.Do(func() {
		b.entered <- struct{}{}
		<-b.release
	})
	return make([]serve.IngestResult, len(pts)), nil
}

// front is what TestDrain drives of a serve.Server and a fleet.Router.
type front interface {
	Addr() string
	Handler() http.Handler
	Shutdown(context.Context) error
}

// TestDrain drives both HTTP fronts through Shutdown. With one /ingest in
// flight, /healthz, /assign and /ingest answer 503 "draining" while they
// drain, and Shutdown waits for the in-flight request, which succeeds. And
// once Shutdown has returned, nothing Start began — the HTTP loop, and the
// router's liveness prober, here probing every millisecond — still holds
// the front, so the first collection frees what only the front holds: the
// server's model, the router's manifest. (A finalizer on the front itself
// would never run: its routes point back at it. The release rounds answer
// no request: a router's call to a shard leaves runtime timers that reach
// the router until the scheduler drops them.)
func TestDrain(t *testing.T) {
	fleet.SetLiveness(t, time.Millisecond, time.Minute)
	// Each start starts a front whose first /ingest signals entered and
	// then blocks until release closes, and sets a finalizer that closes
	// freed on what only that front holds.
	for _, tc := range []struct {
		name  string
		start func(t *testing.T, entered, release, freed chan struct{}) front
	}{
		{"server", func(t *testing.T, entered, release, freed chan struct{}) front {
			mdl := trainModel(t, 200, 2)
			runtime.SetFinalizer(mdl, func(*model.Model) { close(freed) })
			srv := serve.New(serve.Config{})
			if err := srv.SetModel(mdl); err != nil {
				t.Fatal(err)
			}
			srv.SetIngest(blockingIngest{once: new(sync.Once), entered: entered, release: release})
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			return srv
		}},
		{"router", func(t *testing.T, entered, release, freed chan struct{}) front {
			var once sync.Once
			shard, _ := stubShard(t, func(w http.ResponseWriter, r *http.Request) {
				var req serve.AssignRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				once.Do(func() {
					entered <- struct{}{}
					<-release
				})
				json.NewEncoder(w).Encode(serve.IngestResponse{Results: make([]serve.IngestResult, len(req.Points))}) //nolint:errcheck
			})
			mf := &fleet.Manifest{Dim: 2, Shards: 1, M: 3, Pi: 2, W: 4, Seed: 1, KeyFormat: fleet.KeyFormat}
			runtime.SetFinalizer(mf, func(*fleet.Manifest) { close(freed) })
			router, err := fleet.NewRouter(fleet.RouterConfig{Manifest: mf, Shards: [][]string{{strings.TrimPrefix(shard.URL, "http://")}}})
			if err != nil {
				t.Fatal(err)
			}
			if err := router.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			return router
		}},
	} {
		t.Run(tc.name+"/drain", func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			f := tc.start(t, entered, release, make(chan struct{}))
			code := make(chan int, 1)
			go func() {
				resp, err := http.Post("http://"+f.Addr()+"/ingest", "application/json", strings.NewReader(`{"points":[[1,2]]}`))
				if err != nil {
					code <- 0
					return
				}
				resp.Body.Close()
				code <- resp.StatusCode
			}()
			<-entered
			done := make(chan error, 1)
			go func() { done <- f.Shutdown(context.Background()) }()
			deadline := time.Now().Add(5 * time.Second)
			for c, _ := serveOnce(f, http.MethodGet, "/healthz"); c != http.StatusServiceUnavailable; c, _ = serveOnce(f, http.MethodGet, "/healthz") {
				if time.Now().After(deadline) {
					t.Fatalf("/healthz still answers %d after Shutdown began", c)
				}
				time.Sleep(time.Millisecond)
			}
			for _, path := range []string{"/healthz", "/assign", "/ingest"} {
				method := http.MethodPost
				if path == "/healthz" {
					method = http.MethodGet
				}
				if c, body := serveOnce(f, method, path); c != http.StatusServiceUnavailable || body != "draining\n" {
					t.Errorf("%s while draining: HTTP %d %q, want 503 %q", path, c, body, "draining\n")
				}
			}
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned (%v) while a request was still in flight", err)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if c := <-code; c != http.StatusOK {
				t.Fatalf("the in-flight request got HTTP %d across the drain", c)
			}
		})
		t.Run(tc.name+"/release", func(t *testing.T) {
			for round := 0; round < 10; round++ {
				freed := make(chan struct{})
				f := tc.start(t, nil, nil, freed)
				time.Sleep(5 * time.Millisecond) // a few probes
				if err := f.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
				f = nil
				runtime.GC()
				select {
				case <-freed:
				case <-time.After(2 * time.Second):
					t.Fatalf("round %d: what the front holds outlived Shutdown and a collection", round)
				}
			}
		})
	}
}

// serveOnce answers one request with f's routes, on the calling goroutine,
// and returns the status and body.
func serveOnce(f front, method, path string) (int, string) {
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(`{"points":[[1,2]]}`)))
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}
