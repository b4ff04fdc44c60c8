package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
)

// trainModel runs the full offline pipeline on a seeded blob dataset and
// exports the artifact plus the offline labels/halo flags to check against.
func trainModel(t *testing.T, n, k int) (*model.Model, []int32, []bool) {
	t.Helper()
	ds := dataset.Blobs("serve-test", n, 2, k, 100, 2.5, 7)
	res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{Config: core.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	peaks, labels, err := res.Cluster(ds, core.SelectTopK(k))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := core.RunLSHHalo(context.Background(), ds, res, labels, core.LSHConfig{Config: core.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := core.ExportModel(ds, res, peaks, labels, hr.Border, 7)
	if err != nil {
		t.Fatal(err)
	}
	return mdl, labels, hr.Halo
}

// pointsBody is an /assign body of n copies of the point (1, 1).
func pointsBody(n int) string {
	return `{"points":[` + strings.TrimSuffix(strings.Repeat("[1,1],", n), ",") + `]}`
}

func postAssign(t *testing.T, addr string, pts [][]float64) (*http.Response, []serve.Assignment) {
	t.Helper()
	body, err := json.Marshal(map[string][][]float64{"points": pts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/assign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp, nil
	}
	var out struct {
		Results []serve.Assignment `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out.Results
}

// TestServingConformance replays every training point through the HTTP path
// with concurrent clients and requires the served cluster and halo flag to
// match the offline labeling exactly: a training point's nearest stored
// point is itself at distance zero, so this holds by construction — any
// mismatch is a serving bug.
func TestServingConformance(t *testing.T) {
	mdl, labels, halo := trainModel(t, 1500, 4)
	srv := serve.New(serve.Config{})
	if err := srv.SetModel(mdl); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	const clients = 8
	const chunk = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for lo := c * chunk; lo < mdl.N(); lo += clients * chunk {
				hi := lo + chunk
				if hi > mdl.N() {
					hi = mdl.N()
				}
				pts := make([][]float64, 0, hi-lo)
				for i := lo; i < hi; i++ {
					pts = append(pts, mdl.Row(i))
				}
				resp, got := postAssign(t, srv.Addr(), pts)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("rows [%d,%d): HTTP %d", lo, hi, resp.StatusCode)
					return
				}
				for j, a := range got {
					i := lo + j
					if a.Cluster != labels[i] {
						errs <- fmt.Errorf("point %d: served cluster %d, offline label %d", i, a.Cluster, labels[i])
						return
					}
					if a.Halo != halo[i] {
						errs <- fmt.Errorf("point %d: served halo %v, offline halo %v", i, a.Halo, halo[i])
						return
					}
					if a.Dist != 0 {
						errs <- fmt.Errorf("point %d: nonzero self-distance %v", i, a.Dist)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Counters().Get(serve.CtrShed); got != 0 {
		t.Errorf("conformance load shed %d requests with default queue", got)
	}
}

// TestEnginePrunedVsExact checks the two serving paths against each other on
// jittered queries: pruning must scan fewer rows and may never return a
// closer-looking answer than the exact scan (it scans a subset).
func TestEnginePrunedVsExact(t *testing.T) {
	mdl, _, _ := trainModel(t, 1500, 4)
	eng, err := serve.NewEngine(mdl, serve.PrecF64)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Layouts() == 0 {
		t.Fatal("LSH model produced an unpruned engine")
	}
	var prunedRows, exactRows, agree, total int
	for i := 0; i < mdl.N(); i += 3 {
		q := append([]float64(nil), mdl.Row(i)...)
		q[0] += mdl.Dc / 3 // nudge off the stored point
		ap, sp, err := eng.Assign(q, false)
		if err != nil {
			t.Fatalf("query %d: pruned assign: %v", i, err)
		}
		ae, se, err := eng.Assign(q, true)
		if err != nil {
			t.Fatalf("query %d: exact assign: %v", i, err)
		}
		if ap.Dist < ae.Dist {
			t.Fatalf("query %d: pruned dist %v beats exact dist %v", i, ap.Dist, ae.Dist)
		}
		prunedRows += sp
		exactRows += se
		total++
		// The Exact flag necessarily differs between the two paths.
		if ap.Cluster == ae.Cluster && ap.Halo == ae.Halo && ap.Nearest == ae.Nearest && ap.Dist == ae.Dist {
			agree++
		}
	}
	if prunedRows*2 >= exactRows {
		t.Fatalf("pruning scanned %d rows vs %d exact — no real pruning", prunedRows, exactRows)
	}
	if agree*100 < total*95 {
		t.Fatalf("pruned path agreed with exact on only %d/%d queries", agree, total)
	}
	t.Logf("pruned scanned %d rows vs %d exact (%.1f%%), %d/%d agree",
		prunedRows, exactRows, 100*float64(prunedRows)/float64(exactRows), agree, total)
}

// TestStatszSweepCounters: /statsz says what the bucket sweeps did — the rows
// whose distance was evaluated (some, and fewer than exact scans would have
// cost) and the queries a single bucket certified (a stored point queries at
// distance zero, strictly inside any positive guarantee radius).
func TestStatszSweepCounters(t *testing.T) {
	mdl, _, _ := trainModel(t, 900, 3)
	srv := serve.New(serve.Config{})
	if err := srv.SetModel(mdl); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	const nq = 60
	pts := make([][]float64, nq)
	for i := range pts {
		pts[i] = mdl.Row(i * 7)
	}
	if resp, _ := postAssign(t, srv.Addr(), pts); resp.StatusCode != http.StatusOK {
		t.Fatalf("assign: HTTP %d", resp.StatusCode)
	}
	c := srv.Stats().Counters
	if rows := c[serve.CtrCandidates]; rows < nq || rows >= int64(nq*mdl.N()) {
		t.Errorf("%s = %d for %d queries against %d rows", serve.CtrCandidates, rows, nq, mdl.N())
	}
	if got := c[serve.CtrCertified]; got < nq/2 || got > nq {
		t.Errorf("%s = %d of %d stored-point queries", serve.CtrCertified, got, nq)
	}
	if c[serve.CtrExactScans] != 0 {
		t.Errorf("%d exact scans for stored-point queries", c[serve.CtrExactScans])
	}
}

// smallModel is a hand-built model for the control-plane tests.
func smallModel(name string) *model.Model {
	return &model.Model{
		Name:   name,
		Dim:    2,
		Dc:     1,
		Data:   []float64{0, 0, 10, 10},
		Rho:    []float64{1, 1},
		Labels: []int32{0, 1},
		Peaks:  []int32{0, 1},
		Border: []float64{0, 0},
	}
}

// TestOverflowQuery: a query so far out that every squared distance
// overflows to +Inf must produce an error (HTTP 400 at admission, an
// engine error if it slips past) — never a panic that kills the daemon.
func TestOverflowQuery(t *testing.T) {
	for _, prec := range []serve.Precision{serve.PrecF64, serve.PrecQ8} {
		eng, err := serve.NewEngine(smallModel("overflow"), prec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.Assign([]float64{1e200, 1e200}, false); err == nil {
			t.Errorf("engine(%s): overflowing query returned no error", prec)
		}
	}

	srv := serve.New(serve.Config{})
	if err := srv.SetModel(smallModel("overflow-http")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	resp, _ := postAssign(t, srv.Addr(), [][]float64{{1e200, 1e200}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing query: HTTP %d, want 400", resp.StatusCode)
	}
	// The daemon must still be serving after the bad query.
	resp, _ = postAssign(t, srv.Addr(), [][]float64{{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("query after overflow rejection: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestLoadShedding saturates a depth-1 queue while the one worker is held in
// the process hook: the third request must be rejected with 429 and counted
// in serve.shed, and held requests must complete once the worker resumes.
func TestLoadShedding(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	serve.SetQueueDepth(t, 1)
	srv := serve.New(serve.Config{
		ProcessHook: func() {
			entered <- struct{}{}
			<-release
		},
	})
	if err := srv.SetModel(smallModel("shed")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	codes := make(chan int, 2)
	post := func() {
		resp, _ := postAssign(t, srv.Addr(), [][]float64{{1, 1}})
		codes <- resp.StatusCode
	}
	go post()
	<-entered // the worker holds request 1; queue is empty again
	go post()
	// Wait for request 2 to occupy the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Queue.Depth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request 2 never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postAssign(t, srv.Addr(), [][]float64{{2, 2}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := srv.Counters().Get(serve.CtrShed); got != 1 {
		t.Errorf("serve.shed = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("held request got HTTP %d after release", code)
		}
	}
}

// TestWorkersAnswerConcurrently: with two workers, two requests are inside
// engine calls at once — the hook holds each until both have arrived.
func TestWorkersAnswerConcurrently(t *testing.T) {
	arrived := make(chan struct{}, 2)
	both := make(chan struct{})
	release := sync.OnceFunc(func() { close(both) })
	srv := serve.New(serve.Config{
		Workers: 2,
		ProcessHook: func() {
			arrived <- struct{}{}
			<-both
		},
	})
	if err := srv.SetModel(smallModel("workers")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	defer release()

	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postAssign(t, srv.Addr(), [][]float64{{1, 1}})
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 2 requests reached an engine call; the other waits behind it", i)
		}
	}
	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("concurrent request: HTTP %d", code)
		}
	}
}

// TestQueuedRequestLeavesOnCancel: a queued request whose client gives up
// frees its queue slot at once, so the next request is admitted, not shed.
func TestQueuedRequestLeavesOnCancel(t *testing.T) {
	entered := make(chan struct{}, 4)
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	serve.SetQueueDepth(t, 1)
	srv := serve.New(serve.Config{
		Workers: 1,
		ProcessHook: func() {
			entered <- struct{}{}
			<-hold
		},
	})
	if err := srv.SetModel(smallModel("cancel")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	defer release()
	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Stats().Queue.Depth != want {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth %d, want %d", srv.Stats().Queue.Depth, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	codes := make(chan int, 2)
	post := func() {
		resp, _ := postAssign(t, srv.Addr(), [][]float64{{1, 1}})
		codes <- resp.StatusCode
	}
	go post()
	<-entered // the worker holds request 1

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+srv.Addr()+"/assign",
			bytes.NewReader([]byte(`{"points":[[1,1]]}`)))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Error("cancelled request was answered")
		}
	}()
	waitDepth(1) // request 2 queued
	cancel()
	<-gone
	waitDepth(0)

	go post() // request 3 takes the freed slot
	waitDepth(1)
	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request got HTTP %d, want 200", code)
		}
	}
	if got := srv.Counters().Get(serve.CtrShed); got != 0 {
		t.Errorf("serve.shed = %d, want 0", got)
	}
}

// TestGracefulDrain shuts down while a request is in flight: Shutdown must
// wait for it, the request must succeed, and later requests must be refused.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	srv := serve.New(serve.Config{
		ProcessHook: func() {
			once.Do(func() {
				entered <- struct{}{}
				<-release
			})
		},
	})
	if err := srv.SetModel(smallModel("drain")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	code := make(chan int, 1)
	go func() {
		resp, _ := postAssign(t, addr, [][]float64{{1, 1}})
		code <- resp.StatusCode
	}()
	<-entered

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	select {
	case <-done:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-code; got != http.StatusOK {
		t.Fatalf("in-flight request got HTTP %d across drain", got)
	}
	if _, err := http.Post("http://"+addr+"/assign", "application/json",
		bytes.NewReader([]byte(`{"points":[[1,1]]}`))); err == nil {
		t.Error("post-drain request was accepted")
	}
}

// TestShutdownReleasesEngine: once Shutdown returns, nothing the server
// started — nor the scratch a query it answered put back — may still hold
// its model, so the first collection after it frees the model. A server
// rebuilt in place (a reload loop, a harness's repeated set-ups) would
// otherwise keep two models live at random.
func TestShutdownReleasesEngine(t *testing.T) {
	for round := 0; round < 10; round++ {
		freed := make(chan struct{})
		mdl := smallModel("release")
		mdl.LSH = model.Params{Seed: 5, M: 2, Pi: 1, W: 4} // the bucket sweep's scratch too
		runtime.SetFinalizer(mdl, func(*model.Model) { close(freed) })
		srv := serve.New(serve.Config{})
		if err := srv.SetModel(mdl); err != nil {
			t.Fatal(err)
		}
		mdl = nil
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if resp, got := postAssign(t, srv.Addr(), [][]float64{{1, 1}}); resp.StatusCode != http.StatusOK || len(got) != 1 {
			t.Fatalf("round %d: /assign answered %d with %d results", round, resp.StatusCode, len(got))
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		srv = nil
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: the model outlived Shutdown and a collection", round)
		}
	}
}

// TestHotReload swaps models through the Loader path and verifies a failed
// reload keeps the old model serving.
func TestHotReload(t *testing.T) {
	models := []*model.Model{smallModel("v1"), smallModel("v2")}
	var loads int
	var fail bool
	srv := serve.New(serve.Config{
		Loader: func() (*model.Model, error) {
			if fail {
				return nil, fmt.Errorf("artifact store down")
			}
			m := models[loads%len(models)]
			loads++
			return m, nil
		},
	})
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Model.Name; got != "v1" {
		t.Fatalf("loaded %q, want v1", got)
	}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Model.Name; got != "v2" {
		t.Fatalf("reloaded to %q, want v2", got)
	}
	fail = true
	if err := srv.Reload(); err == nil {
		t.Fatal("failed load reported success")
	}
	if got := srv.Stats().Model.Name; got != "v2" {
		t.Fatalf("failed reload replaced the model with %q", got)
	}
	if got := srv.Counters().Get(serve.CtrReloads); got != 2 {
		t.Fatalf("serve.reloads = %d, want 2", got)
	}
}

// TestRequestValidation exercises the /assign error paths.
func TestRequestValidation(t *testing.T) {
	srv := serve.New(serve.Config{})
	if err := srv.SetModel(smallModel("val")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"garbage", "{", http.StatusBadRequest},
		{"empty", `{"points":[]}`, http.StatusBadRequest},
		{"wrong dim", `{"points":[[1,2,3]]}`, http.StatusBadRequest},
		{"too many", pointsBody(serve.MaxRequestPoints + 1), http.StatusBadRequest},
		{"at the cap", pointsBody(serve.MaxRequestPoints), http.StatusOK},
		{"ok", `{"points":[[1,1]]}`, http.StatusOK},
	} {
		resp, err := http.Post("http://"+srv.Addr()+"/assign", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestHealthz covers the probe's three states.
func TestHealthz(t *testing.T) {
	srv := serve.New(serve.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	get := func() int {
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusServiceUnavailable {
		t.Errorf("modelless healthz: HTTP %d, want 503", got)
	}
	if err := srv.SetModel(smallModel("health")); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != http.StatusOK {
		t.Errorf("healthy healthz: HTTP %d, want 200", got)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStartRefusesBadConfig: Start refuses a negative Workers or *ShardID
// and an unknown Precision, naming it, before it opens a listener — values
// New alone would quietly serve with.
func TestStartRefusesBadConfig(t *testing.T) {
	shard := -1
	for _, tc := range []struct {
		name string
		cfg  serve.Config
	}{
		{"Workers", serve.Config{Workers: -1}},
		{"ShardID", serve.Config{ShardID: &shard}},
		{"precision", serve.Config{Precision: "f32"}},
	} {
		srv := serve.New(tc.cfg)
		err := srv.Start("127.0.0.1:0")
		if err == nil {
			srv.Shutdown(context.Background()) //nolint:errcheck
		}
		if err == nil || !strings.Contains(err.Error(), tc.name) || srv.Addr() != "" {
			t.Errorf("%s: err %v, listening on %q; want %s refused before a listener opens", tc.name, err, srv.Addr(), tc.name)
		}
	}
}
