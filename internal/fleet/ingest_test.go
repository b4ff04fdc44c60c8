package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/serve"
)

// startIngestFleet brings up a single-replica ingest-enabled fleet: each
// shard server gets its own ingest.Store over the shard sub-model, with the
// disjoint ID layout OPERATIONS.md prescribes (base N+shard, stride =
// shard count).
func startIngestFleet(t *testing.T, mdl *model.Model, shards int) (*fleet.Router, [][]*serve.Server) {
	t.Helper()
	subs, mf, err := fleet.Partition(mdl, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([][]*serve.Server, shards)
	addrs := make([][]string, shards)
	for s := range subs {
		id := s
		srv := serve.New(serve.Config{ShardID: &id})
		sub := subs[s]
		st, err := ingest.Open(ingest.Config{
			Dir:       t.TempDir(),
			Precision: "f64",
			IDBase:    int64(mdl.N() + s),
			IDStride:  int64(shards),
			OnSwap:    srv.UseEngine,
		}, func() (*model.Model, error) { return sub, nil })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() }) //nolint:errcheck
		srv.SetIngest(st)
		srv.UseEngine(st.Engine())
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
		srvs[s] = []*serve.Server{srv}
		addrs[s] = []string{srv.Addr()}
	}
	router, err := fleet.NewRouter(fleet.RouterConfig{Manifest: mf, Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CheckShards(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := router.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Shutdown(context.Background()) }) //nolint:errcheck
	return router, srvs
}

func postPoints(t *testing.T, url string, pts [][]float64) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string][][]float64{"points": pts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFleetIngest routes writes through the router to the LSH-owning
// shards and requires them to be readable through the routed /assign path
// immediately (pre-compaction) and after a fleet-wide compaction.
func TestFleetIngest(t *testing.T) {
	mdl := trainModel(t, 1500, 4)
	const shards = 3
	router, srvs := startIngestFleet(t, mdl, shards)

	pts := make([][]float64, 40)
	for i := range pts {
		row := mdl.Row(i * 31 % mdl.N())
		pts[i] = []float64{row[0] + 0.001 + float64(i)*1e-5, row[1] - 0.002}
	}
	resp := postPoints(t, "http://"+router.Addr()+"/ingest", pts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /ingest: HTTP %d", resp.StatusCode)
	}
	var acked struct {
		Results []serve.IngestResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acked); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(acked.Results) != len(pts) {
		t.Fatalf("router acked %d points, sent %d", len(acked.Results), len(pts))
	}

	// The per-shard ID layout keeps global IDs disjoint across shards.
	seen := make(map[int32]bool)
	for i, a := range acked.Results {
		if int(a.ID) < mdl.N() {
			t.Fatalf("ack %d: ID %d collides with the base ID range [0,%d)", i, a.ID, mdl.N())
		}
		if seen[a.ID] {
			t.Fatalf("ack %d: duplicate global ID %d", i, a.ID)
		}
		seen[a.ID] = true
	}

	checkRouted := func(when string) {
		t.Helper()
		resp := postPoints(t, "http://"+router.Addr()+"/assign", pts)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("router /assign %s: HTTP %d", when, resp.StatusCode)
		}
		var got struct {
			Results []serve.Assignment `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for i := range pts {
			if got.Results[i].Nearest != acked.Results[i].ID || got.Results[i].Dist2 != 0 {
				t.Fatalf("routed query %s at ingested point %d: %+v, acked ID %d",
					when, i, got.Results[i], acked.Results[i].ID)
			}
		}
	}
	checkRouted("pre-compaction")

	// Roll the fleet forward shard by shard (what fleetctl rollover does)
	// and require the same answers from the compacted bases.
	total := 0
	for s := range srvs {
		resp, err := http.Post("http://"+srvs[s][0].Addr()+"/compact", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var info serve.IngestInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.Version != 1 || info.DeltaPoints != 0 {
			t.Fatalf("shard %d compaction: %+v", s, info)
		}
		checkRouted("mid-rollover")
		total += info.BaseN
	}
	if want := mdl.N() + len(pts); total < want {
		t.Fatalf("fleet holds %d rows after rollover, want >= %d", total, want)
	}
	checkRouted("post-rollover")
}

// TestFleetIngestShortAck: a shard that acks fewer points than it was sent
// is a bad gateway, not an index out of range in the router's handler.
func TestFleetIngestShortAck(t *testing.T) {
	mdl := trainModel(t, 300, 2)
	_, mf, err := fleet.Partition(mdl, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"results":[{"id":1}]}`) //nolint:errcheck
	}))
	defer stub.Close()
	router, err := fleet.NewRouter(fleet.RouterConfig{Manifest: mf, Shards: [][]string{{strings.TrimPrefix(stub.URL, "http://")}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background()) //nolint:errcheck

	resp := postPoints(t, "http://"+router.Addr()+"/ingest", [][]float64{mdl.Row(0), mdl.Row(1)})
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if want := "shard 0 acked 1 results for 2 points"; resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(msg), want) {
		t.Fatalf("router /ingest: HTTP %d %q, want 502 %q", resp.StatusCode, msg, want)
	}
	if got := router.Counters().Get(fleet.CtrIngestErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", fleet.CtrIngestErrors, got)
	}
}
