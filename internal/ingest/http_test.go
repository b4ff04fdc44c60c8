package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/serve"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHTTPIngest wires a Store into a serve.Server exactly as clusterd
// -ingest-dir does and exercises the ingest endpoints end to end.
func TestHTTPIngest(t *testing.T) {
	m := trainModel(t, 500, 3)
	srv := serve.New(serve.Config{Loader: loaderFor(m)})
	st, err := Open(Config{
		Dir:       t.TempDir(),
		Precision: "f64",
		OnSwap:    srv.UseEngine,
	}, loaderFor(m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) //nolint:errcheck
	srv.SetIngest(st)
	srv.UseEngine(st.Engine())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(t.Context()) }) //nolint:errcheck
	base := "http://" + srv.Addr()

	pts := jitterPts(m, 0, 8)
	resp := postJSON(t, base+"/ingest", map[string]any{"points": pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest: HTTP %d", resp.StatusCode)
	}
	acks := decodeJSON[serve.IngestResponse](t, resp).Results
	if len(acks) != len(pts) {
		t.Fatalf("/ingest acked %d points, sent %d", len(acks), len(pts))
	}

	// The ingested points are immediately visible to /assign, no restart.
	resp = postJSON(t, base+"/assign", map[string]any{"points": pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/assign: HTTP %d", resp.StatusCode)
	}
	got := decodeJSON[struct {
		Results []serve.Assignment `json:"results"`
	}](t, resp).Results
	for i := range pts {
		if got[i].Nearest != acks[i].ID || got[i].Dist2 != 0 {
			t.Fatalf("/assign at ingested point %d: %+v, acked ID %d", i, got[i], acks[i].ID)
		}
	}

	// /statsz reports the backend state and merges its counters.
	resp, err = http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeJSON[struct {
		Ingest   *serve.IngestInfo `json:"ingest"`
		Counters map[string]int64  `json:"counters"`
	}](t, resp)
	if stats.Ingest == nil || stats.Ingest.DeltaPoints != len(pts) {
		t.Fatalf("/statsz ingest section: %+v", stats.Ingest)
	}
	if stats.Counters[CtrPoints] != int64(len(pts)) {
		t.Fatalf("/statsz counters[%s] = %d, want %d", CtrPoints, stats.Counters[CtrPoints], len(pts))
	}

	// The compactor owns the model lineage: /reload is refused.
	resp = postJSON(t, base+"/reload", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("/reload on an ingest node: HTTP %d, want 409", resp.StatusCode)
	}

	resp = postJSON(t, base+"/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/compact: HTTP %d", resp.StatusCode)
	}
	info := decodeJSON[serve.IngestInfo](t, resp)
	if info.Version != 1 || info.DeltaPoints != 0 || info.BaseN != m.N()+len(pts) {
		t.Fatalf("/compact reply: %+v", info)
	}
	// Post-compaction the server's engine tracked the swap (OnSwap) and the
	// promoted points still answer.
	if srv.Stats().Model.N != m.N()+len(pts) {
		t.Fatalf("server engine not swapped after /compact: %d rows", srv.Stats().Model.N)
	}
	resp = postJSON(t, base+"/assign", map[string]any{"points": pts[:1]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/assign after compaction: HTTP %d", resp.StatusCode)
	}
	got = decodeJSON[struct {
		Results []serve.Assignment `json:"results"`
	}](t, resp).Results
	if got[0].Nearest != acks[0].ID {
		t.Fatalf("/assign after compaction: %+v, want nearest %d", got[0], acks[0].ID)
	}
}

// TestHTTPIngestShed maps a full delta to 429 + Retry-After.
func TestHTTPIngestShed(t *testing.T) {
	m := trainModel(t, 400, 3)
	srv := serve.New(serve.Config{Loader: loaderFor(m)})
	lower(t, &maxDelta, 2)
	st, err := Open(Config{Dir: t.TempDir(), Precision: "f64"}, loaderFor(m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) //nolint:errcheck
	srv.SetIngest(st)
	srv.UseEngine(st.Engine())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(t.Context()) }) //nolint:errcheck

	resp := postJSON(t, fmt.Sprintf("http://%s/ingest", srv.Addr()), map[string]any{"points": jitterPts(m, 0, 3)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound /ingest: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 /ingest reply lacks Retry-After")
	}
}
