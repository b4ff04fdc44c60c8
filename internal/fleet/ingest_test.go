package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// startIngestFleet brings up an ingest-enabled fleet: each shard server gets
// its own ingest.Store over the shard sub-model, with the disjoint ID layout
// OPERATIONS.md prescribes (base N+shard, stride = shard count), shared by a
// shard's replicas.
func startIngestFleet(t testing.TB, mdl *model.Model, shards, replicas int) (*fleet.Router, [][]*serve.Server) {
	t.Helper()
	subs, mf, err := fleet.Partition(mdl, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([][]*serve.Server, shards)
	addrs := make([][]string, shards)
	for s := range subs {
		for range replicas {
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
			srvs[s] = append(srvs[s], srv)
			addrs[s] = append(addrs[s], srv.Addr())
		}
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

func postPoints(t testing.TB, url string, pts [][]float64) *http.Response {
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
// immediately (pre-compaction) and after a fleet-wide compaction: a query at
// an ingested point is answered in the first round by the shard that holds
// it, and queries the ingested points cannot reach stay byte-identical to a
// single server, with first-round certificates among them.
func TestFleetIngest(t *testing.T) {
	mdl := trainModel(t, 1500, 4)
	single := serve.New(serve.Config{})
	if err := single.SetModel(mdl); err != nil {
		t.Fatal(err)
	}
	if err := single.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown(context.Background()) //nolint:errcheck

	pts := make([][]float64, 40)
	for i := range pts {
		row := mdl.Row(i * 31 % mdl.N())
		pts[i] = []float64{row[0] + 0.001 + float64(i)*1e-5, row[1] - 0.002}
	}
	// Training rows farther than d_c from every ingested point: neither a
	// delta row nor folded density mass can change their answers.
	far := func(i int) bool {
		for _, p := range pts {
			if points.SqDist(p, mdl.Row(i)) <= mdl.Dc*mdl.Dc {
				return false
			}
		}
		return true
	}
	bodies := conformanceBodies(t, mdl, far, false)
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkFleetIngest(t, mdl, shards, pts, func(router *fleet.Router) {
				before := router.Counters().Get(fleet.CtrCertified)
				assertSameBytes(t, single.Addr(), router.Addr(), bodies)
				if router.Counters().Get(fleet.CtrCertified) == before {
					t.Error("no conformance query certified in the first round")
				}
			})
		})
	}
}

// checkFleetIngest ingests pts through a fresh ingest fleet of the given
// size, reads every point back before, during and after a rollover, and runs
// conform on the fleet before the rollover and after it.
func checkFleetIngest(t *testing.T, mdl *model.Model, shards int, pts [][]float64, conform func(*fleet.Router)) {
	router, srvs := startIngestFleet(t, mdl, shards, 1)
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
		before := router.Counters().Get(fleet.CtrCertified)
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
		if n := router.Counters().Get(fleet.CtrCertified) - before; n != int64(len(pts)) {
			t.Fatalf("%s: %d of %d queries at ingested points answered in the first round", when, n, len(pts))
		}
	}
	checkRouted("pre-compaction")
	conform(router)

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
	conform(router)
}

// TestFleetAssignBounds drives a shard's /fleet/assign bounds directly. A
// masked query none of whose layouts this shard scans finds no base row:
// without a bound it reports nocand and leaves its delta to the broadcast
// fallback, but under a bound — a second-round query, for which no broadcast
// follows — the delta row at the query comes back, and a delta row beyond
// the bound does not. Bounds that do not match
// the points one for one, or are negative, are refused with a 400.
func TestFleetAssignBounds(t *testing.T) {
	mdl := trainModel(t, 600, 3)
	const shards = 2
	_, srvs := startIngestFleet(t, mdl, shards, 1)
	p := []float64{mdl.Row(7)[0] + 0.25, mdl.Row(7)[1] - 0.5}
	resp := postPoints(t, "http://"+srvs[0][0].Addr()+"/ingest", [][]float64{p})
	var acked serve.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&acked); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	assign := func(body string) (int, serve.FleetAssignResponse) {
		t.Helper()
		resp, err := http.Post("http://"+srvs[0][0].Addr()+"/fleet/assign", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out serve.FleetAssignResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	pt, _ := json.Marshal(p)
	if code, out := assign(fmt.Sprintf(`{"points":[%s],"masks":[0]}`, pt)); code != http.StatusOK || !out.Results[0].NoCand {
		t.Fatalf("unbounded masked query with no layouts: HTTP %d %+v, want nocand", code, out)
	}
	code, out := assign(fmt.Sprintf(`{"points":[%s],"masks":[0],"bounds":[1]}`, pt))
	if r := out.Results; code != http.StatusOK || r[0].NoCand || r[0].Nearest != acked.Results[0].ID || r[0].D2 != 0 {
		t.Fatalf("bounded masked query at the ingested point: HTTP %d %+v, want delta ID %d", code, out, acked.Results[0].ID)
	}
	// The shard's only delta row lies 3 from this point, beyond the bound:
	// no row ties or beats it, so the answer is nocand, not d2 = 9.
	far, _ := json.Marshal([]float64{p[0] + 3, p[1]})
	if code, out := assign(fmt.Sprintf(`{"points":[%s],"masks":[0],"bounds":[1]}`, far)); code != http.StatusOK || !out.Results[0].NoCand {
		t.Fatalf("bounded masked query 3 from the delta row: HTTP %d %+v, want nocand", code, out)
	}
	for _, bounds := range []string{`[1,1]`, `[]`, `[-1]`} {
		if code, _ := assign(fmt.Sprintf(`{"points":[%s],"masks":[0],"bounds":%s}`, pt, bounds)); code != http.StatusBadRequest {
			t.Errorf("bounds %s: HTTP %d, want 400", bounds, code)
		}
	}
}

// FuzzFleetAssignBody posts arbitrary bodies to /fleet/assign on a shard
// that serves a fleet sub-model with a delta row. A body is refused or
// answered, never a 500 and never a panic; a 200 reply holds one result per
// point the body carries, and a bounded query's answer — base or delta row —
// ties or beats its bound, else it is nocand.
func FuzzFleetAssignBody(f *testing.F) {
	mdl := trainModel(f, 600, 3)
	_, srvs := startIngestFleet(f, mdl, 2, 1)
	url := "http://" + srvs[0][0].Addr()
	p := []float64{mdl.Row(7)[0] + 0.25, mdl.Row(7)[1] - 0.5}
	postPoints(f, url+"/ingest", [][]float64{p}).Body.Close()
	for _, body := range []string{
		fmt.Sprintf(`{"points":[[%v,%v]],"masks":[0],"bounds":[1]}`, p[0]+3, p[1]),
		fmt.Sprintf(`{"points":[[%v,%v],[%v,%v]],"masks":[7,1],"bounds":[0,1e300]}`, p[0], p[1], p[0]+1, p[1]),
		fmt.Sprintf(`{"points":[[%v,%v]],"masks":[3]}`, p[0], p[1]),
		`{"points":[[1,2]],"exact":true}`,
		`{"points":[[1,2]],"masks":[0],"bounds":[-1]}`,
		`{"points":[[1,2]],"masks":[1],"bounds":[1,2]}`,
		`{"points":[[1,2]]}`,
		`{"points":[[1,2]],"masks":[0],"bounds":[0]} trailing`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(url+"/fleet/assign", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusInternalServerError {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("HTTP 500 for %q: %s", body, msg)
		}
		if resp.StatusCode != http.StatusOK {
			return
		}
		var req serve.FleetAssignRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("HTTP 200 for %q, which does not decode: %v", body, err)
		}
		var out serve.FleetAssignResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != len(req.Points) {
			t.Fatalf("%q: %d results for %d points", body, len(out.Results), len(req.Points))
		}
		for i, r := range out.Results {
			if req.Bounds != nil && !r.NoCand && !r.NoFinite && !(r.D2 <= req.Bounds[i]) {
				t.Fatalf("%q: query %d answered at d2 %v past its bound %v", body, i, r.D2, req.Bounds[i])
			}
		}
	})
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

// TestFleetIngestReplicatedShard: routed ingest to a shard with two replicas
// under one ID layout is refused before anything is written. Spreading the
// shard's single-point ingests over both replicas would ack each global ID
// twice and leave each replica with half of the shard's delta.
func TestFleetIngestReplicatedShard(t *testing.T) {
	mdl := trainModel(t, 300, 2)
	router, srvs := startIngestFleet(t, mdl, 1, 2)
	for i := range 4 {
		resp := postPoints(t, "http://"+router.Addr()+"/ingest", [][]float64{mdl.Row(i)})
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented || !strings.Contains(string(msg), "shard 0") {
			t.Fatalf("ingest %d: HTTP %d %q, want 501 naming shard 0", i, resp.StatusCode, msg)
		}
	}
	for r, srv := range srvs[0] {
		if info := srv.Stats().Ingest; info == nil || info.DeltaPoints != 0 {
			t.Fatalf("replica %d holds a delta after refused ingests: %+v", r, info)
		}
	}
	if got := router.Counters().Get(fleet.CtrIngestErrors); got != 4 {
		t.Fatalf("%s = %d, want 4", fleet.CtrIngestErrors, got)
	}
}
