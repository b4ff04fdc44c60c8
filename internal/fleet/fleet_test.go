package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/serve"
)

// trainModel runs the offline pipeline on a seeded blob dataset, exactly
// like the serve tests, so fleet conformance checks a real artifact.
func trainModel(t *testing.T, n, k int) *model.Model {
	t.Helper()
	ds := dataset.Blobs("fleet-test", n, 2, k, 100, 2.5, 7)
	res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{Config: core.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	peaks, labels, err := res.Cluster(ds, core.SelectTopK(k))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := core.RunLSHHalo(context.Background(), ds, res.Rho, labels, res.Stats.Dc, core.LSHConfig{Config: core.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := core.ExportModel(ds, res, peaks, labels, hr.Border, 7)
	if err != nil {
		t.Fatal(err)
	}
	return mdl
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		a, err := fleet.NewRing(shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fleet.NewRing(shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, shards)
		const keys = 10000
		for i := 0; i < keys; i++ {
			key := "3|" + strconv.Itoa(i*7919) + ".-" + strconv.Itoa(i%13)
			o := a.Owner(key)
			if o2 := b.Owner(key); o2 != o {
				t.Fatalf("shards=%d key %q: owners %d vs %d across identical rings", shards, key, o, o2)
			}
			counts[o]++
		}
		for s, c := range counts {
			if c < keys/(shards*20) {
				t.Errorf("shards=%d: shard %d owns only %d/%d keys", shards, s, c, keys)
			}
		}
	}
	if _, err := fleet.NewRing(0, 0); err == nil {
		t.Error("0-shard ring built without error")
	}
}

// TestPartitionCoverage checks the partitioner's core invariants: every
// bucket's rows live on the bucket's owning shard, every peak replicates to
// every shard, sub-models validate, and partitioning is deterministic.
func TestPartitionCoverage(t *testing.T) {
	mdl := trainModel(t, 1200, 4)
	mdl.BuildCompact()
	for _, shards := range []int{1, 3} {
		subs, mf, err := fleet.Partition(mdl, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != shards {
			t.Fatalf("got %d sub-models for %d shards", len(subs), shards)
		}
		place, err := mf.Placement()
		if err != nil {
			t.Fatal(err)
		}
		layouts := mf.Layouts()
		// has[s] answers "does shard s hold global row g" via binary search
		// over the (ascending) RowIDs.
		has := func(s int, g int32) bool {
			ids := subs[s].RowIDs
			j := sort.Search(len(ids), func(j int) bool { return ids[j] >= g })
			return j < len(ids) && ids[j] == g
		}
		for i := 0; i < mdl.N(); i++ {
			for _, key := range layouts.Keys(mdl.Row(i)) {
				if s := place.Owner(key); !has(s, int32(i)) {
					t.Fatalf("shards=%d: row %d key %q owned by shard %d but absent there", shards, i, key, s)
				}
			}
		}
		total := 0
		for s, sub := range subs {
			total += sub.N()
			if len(sub.Data32) != len(sub.Data) || len(sub.Q8Codes)*8 != len(sub.Data)*8 {
				t.Errorf("shards=%d shard %d: compact mirrors not carried over", shards, s)
			}
			for c, p := range mdl.Peaks {
				if !has(s, p) {
					t.Fatalf("shards=%d: peak %d (cluster %d) missing from shard %d", shards, p, c, s)
				}
				if got := sub.GlobalID(int(sub.Peaks[c])); got != p {
					t.Fatalf("shards=%d shard %d: peak %d re-indexed to global %d", shards, s, p, got)
				}
			}
		}
		if shards == 1 && total != mdl.N() {
			t.Errorf("single shard holds %d of %d rows", total, mdl.N())
		}
		subs2, _, err := fleet.Partition(mdl, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		for s := range subs {
			if !int32sEqual(subs[s].RowIDs, subs2[s].RowIDs) {
				t.Fatalf("shards=%d: partition not deterministic on shard %d", shards, s)
			}
		}
	}
	if _, _, err := fleet.Partition(mdl, 0, 0); err == nil {
		t.Error("0-shard partition built without error")
	}
	sub, _, err := fleet.Partition(mdl, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fleet.Partition(sub[0], 2, 0); err == nil {
		t.Error("re-partitioning a sub-model built without error")
	}
}

// TestHeavyBucketBalance checks the cost-aware placement's plumbing: on a
// clustered model whose LSH bucket mass concentrates in a few
// cluster-core buckets, the manifest's overrides must exist, survive a
// save/load round trip, and resolve identically on a reloaded placement.
// (TestSampledWeightBalance, in the package, checks the balance itself
// against the partitioner's own cost estimate.)
func TestHeavyBucketBalance(t *testing.T) {
	mdl := trainModel(t, 4000, 3)
	for _, shards := range []int{2, 4} {
		_, mf, err := fleet.Partition(mdl, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/fleet.json"
		if err := mf.Save(path); err != nil {
			t.Fatal(err)
		}
		mf2, err := fleet.LoadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(mf2.Overrides) != len(mf.Overrides) {
			t.Fatalf("shards=%d: %d overrides saved, %d loaded", shards, len(mf.Overrides), len(mf2.Overrides))
		}
		place, err := mf.Placement()
		if err != nil {
			t.Fatal(err)
		}
		place2, err := mf2.Placement()
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && len(mf.Overrides) == 0 {
			t.Errorf("shards=%d: no heavy buckets re-placed on a clustered model", shards)
		}
		layouts := mf.Layouts()
		seen := make(map[string]bool)
		for i := 0; i < mdl.N(); i++ {
			for _, key := range layouts.Keys(mdl.Row(i)) {
				if seen[key] {
					continue
				}
				seen[key] = true
				if o, o2 := place.Owner(key), place2.Owner(key); o2 != o {
					t.Fatalf("shards=%d key %q: owner %d vs %d after manifest round trip", shards, key, o, o2)
				}
			}
		}
	}
	// Out-of-range overrides must be rejected, not silently mis-routed.
	bad := &fleet.Manifest{Dim: 2, Shards: 2, M: 3, Pi: 3, W: 1, Overrides: map[string]int{"0|1.2.3": 2}}
	if err := bad.Validate(); err == nil {
		t.Error("override to out-of-range shard validated without error")
	}
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// startFleet partitions mdl and brings up one serve.Server per shard per
// replica plus a router, all on loopback. Returns the router and the shard
// servers (shards × replicas).
func startFleet(t *testing.T, mdl *model.Model, shards, replicas int, rcfg fleet.RouterConfig, scfg func(shard, rep int) serve.Config) (*fleet.Router, [][]*serve.Server) {
	t.Helper()
	subs, mf, err := fleet.Partition(mdl, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([][]*serve.Server, shards)
	addrs := make([][]string, shards)
	for s := range subs {
		eng, err := serve.NewEngine(subs[s], serve.PrecF64)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < replicas; rep++ {
			cfg := serve.Config{}
			if scfg != nil {
				cfg = scfg(s, rep)
			}
			id := s
			cfg.ShardID = &id
			srv := serve.New(cfg)
			srv.UseEngine(eng)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
			srvs[s] = append(srvs[s], srv)
			addrs[s] = append(addrs[s], srv.Addr())
		}
	}
	rcfg.Manifest = mf
	rcfg.Shards = addrs
	router, err := fleet.NewRouter(rcfg)
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

// rawAssign POSTs an /assign body and returns status plus raw response
// bytes — the unit of the byte-identity contract.
func rawAssign(t *testing.T, addr string, body string) (int, string) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/assign", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestFleetConformance is the acceptance gate: the router in front of a
// partitioned fleet must answer every request byte-identically to a single
// server holding the full model — normal queries, fallback-triggering far
// queries, and every validation rejection — under concurrent clients.
func TestFleetConformance(t *testing.T) {
	mdl := trainModel(t, 1500, 4)
	single := serve.New(serve.Config{})
	if err := single.SetModel(mdl); err != nil {
		t.Fatal(err)
	}
	if err := single.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown(context.Background()) //nolint:errcheck

	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			router, _ := startFleet(t, mdl, shards, 1, fleet.RouterConfig{}, nil)

			// Batches of training rows (self-distance zero), jittered rows
			// (real NN work), one far query per batch (exact fallback), and
			// a handful of validation errors — byte-compared in parallel.
			var bodies []string
			const chunk = 25
			for lo := 0; lo < mdl.N(); lo += chunk * 3 {
				var pts [][]float64
				for i := lo; i < lo+chunk && i < mdl.N(); i++ {
					pts = append(pts, mdl.Row(i))
					j := append([]float64(nil), mdl.Row(i)...)
					j[0] += mdl.Dc / 3
					j[1] -= mdl.Dc / 7
					pts = append(pts, j)
				}
				pts = append(pts, []float64{1e9, -1e9}) // far: no bucket anywhere
				b, err := json.Marshal(map[string][][]float64{"points": pts})
				if err != nil {
					t.Fatal(err)
				}
				bodies = append(bodies, string(b))
			}
			bodies = append(bodies,
				`{"points":[]}`,              // no points
				`{"points":[[1,2,3]]}`,       // wrong dim
				`{"points":[[1e300,0]]}`,     // overflow coordinate
				`{"points":[[0,1]]`,          // truncated JSON
				`{"points":[[0,0],["a",0]]}`, // malformed number
			)

			const clients = 6
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < len(bodies); i += clients {
						sc, sb := rawAssign(t, single.Addr(), bodies[i])
						fc, fb := rawAssign(t, router.Addr(), bodies[i])
						if sc != fc || sb != fb {
							errc <- fmt.Errorf("body %d: single (%d) %q vs fleet (%d) %q", i, sc, sb, fc, fb)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}

			// With M=10 layouts and a balanced ring, nearly every query owns
			// buckets on every shard of a tiny fleet, so at 2 shards the mean
			// legitimately sits at 2.0 minus the rare single-shard query; only
			// from 3 shards up is strictly-below-shards statistically certain.
			fo := router.Fanout()
			if fo <= 0 || fo > float64(shards) {
				t.Errorf("mean fan-out %.3f not in (0, %d]", fo, shards)
			}
			if shards >= 3 && fo >= float64(shards) {
				t.Errorf("mean fan-out %.3f not strictly below %d shards", fo, shards)
			}
			if router.Counters().Get(fleet.CtrFallbackBroadcasts) == 0 {
				t.Error("far queries never triggered an exact fallback broadcast")
			}
			if router.Counters().Get(fleet.CtrErrors) != 0 {
				t.Errorf("router counted %d errors on a healthy fleet", router.Counters().Get(fleet.CtrErrors))
			}
		})
	}
}

// TestFleetStatszRollup checks the router's fleet-wide counter rollup and
// replica reporting.
func TestFleetStatszRollup(t *testing.T) {
	mdl := trainModel(t, 900, 3)
	router, srvs := startFleet(t, mdl, 2, 1, fleet.RouterConfig{}, nil)
	body, _ := json.Marshal(map[string][][]float64{"points": {mdl.Row(0), mdl.Row(1)}})
	if sc, sb := rawAssign(t, router.Addr(), string(body)); sc != http.StatusOK {
		t.Fatalf("assign through router: HTTP %d %s", sc, sb)
	}
	st := router.Stats(context.Background())
	if st.Shards != 2 || len(st.Replicas) != 2 {
		t.Fatalf("statsz reports %d shards / %d replicas", st.Shards, len(st.Replicas))
	}
	if st.RollupMissing != 0 {
		t.Fatalf("%d replicas missing from rollup", st.RollupMissing)
	}
	var want int64
	for _, reps := range srvs {
		for _, srv := range reps {
			want += srv.Counters().Get(serve.CtrFleetRequests)
		}
	}
	if want == 0 || st.Rollup[serve.CtrFleetRequests] != want {
		t.Errorf("rollup %s = %d, replicas sum to %d", serve.CtrFleetRequests, st.Rollup[serve.CtrFleetRequests], want)
	}
	if st.Counters[fleet.CtrRequests] != 1 || st.Counters[fleet.CtrPoints] != 2 {
		t.Errorf("router counters: %+v", st.Counters)
	}
	// The sweep's counters ride the same rollup: rows evaluated on the
	// shards, and no certificate — a masked scan leaves that to the router.
	if certified, ok := st.Rollup[serve.CtrCertified]; !ok || certified != 0 || st.Rollup[serve.CtrCandidates] < 2 {
		t.Errorf("rollup %s = %d (present %v), %s = %d", serve.CtrCertified, certified, ok, serve.CtrCandidates, st.Rollup[serve.CtrCandidates])
	}
}

// TestFleetHedging forces a hedge: the round-robin start replica of a
// 2-replica shard stalls every batch far past the fixed hedge delay, so the
// hedged duplicate to the fast replica must win.
func TestFleetHedging(t *testing.T) {
	mdl := trainModel(t, 900, 3)
	slow := func(shard, rep int) serve.Config {
		cfg := serve.Config{}
		if rep == 0 {
			cfg.ProcessHook = func() { time.Sleep(150 * time.Millisecond) }
		}
		return cfg
	}
	router, _ := startFleet(t, mdl, 1, 2, fleet.RouterConfig{HedgeDelay: 10 * time.Millisecond}, slow)
	body, _ := json.Marshal(map[string][][]float64{"points": {mdl.Row(0)}})
	for i := 0; i < 4; i++ {
		if sc, sb := rawAssign(t, router.Addr(), string(body)); sc != http.StatusOK {
			t.Fatalf("request %d: HTTP %d %s", i, sc, sb)
		}
	}
	if h := router.Counters().Get(fleet.CtrHedges); h == 0 {
		t.Error("no hedged requests despite a stalled replica")
	}
	if w := router.Counters().Get(fleet.CtrHedgeWins); w == 0 {
		t.Error("no hedge wins despite a stalled replica")
	}
}

// TestFleetFailover drills the chaos scenario from the issue: two replicas
// per shard, one killed mid-sweep. The router must fail over with zero
// client-visible errors, keep every assignment bit-identical to a healthy
// single server, and declare the dead replica within the liveness timeout.
func TestFleetFailover(t *testing.T) {
	mdl := trainModel(t, 1200, 4)
	single := serve.New(serve.Config{})
	if err := single.SetModel(mdl); err != nil {
		t.Fatal(err)
	}
	if err := single.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown(context.Background()) //nolint:errcheck

	// The victim is shard 0's replica 0. chaos.OnNth arms the kill on that
	// replica's 3rd engine call — mid-sweep by construction — and the kill
	// itself runs off the handler goroutine (Shutdown waits for it).
	ch := chaos.New(7)
	var killed sync.WaitGroup
	killed.Add(1)
	arm := chaos.OnNth(3, func() {
		go func() {
			defer killed.Done()
			ch.Node("shard0-replica0").Kill() //nolint:errcheck
		}()
	})
	scfg := func(shard, rep int) serve.Config {
		if shard == 0 && rep == 0 {
			return serve.Config{ProcessHook: arm}
		}
		return serve.Config{}
	}
	rcfg := fleet.RouterConfig{
		Heartbeat:  25 * time.Millisecond,
		DeadAfter:  50 * time.Millisecond,
		HedgeDelay: -1, // isolate failover from hedging
	}
	router, srvs := startFleet(t, mdl, 2, 2, rcfg, scfg)
	victim := srvs[0][0]
	ch.Register("shard0-replica0", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		return victim.Shutdown(ctx)
	}, nil)

	const chunk = 20
	var mu sync.Mutex
	results := make([]serve.Assignment, mdl.N())
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for lo := c * chunk; lo < mdl.N(); lo += 4 * chunk {
				hi := lo + chunk
				if hi > mdl.N() {
					hi = mdl.N()
				}
				pts := make([][]float64, 0, hi-lo)
				for i := lo; i < hi; i++ {
					pts = append(pts, mdl.Row(i))
				}
				body, _ := json.Marshal(map[string][][]float64{"points": pts})
				sc, sb := rawAssign(t, router.Addr(), string(body))
				if sc != http.StatusOK {
					errc <- fmt.Errorf("rows [%d,%d): HTTP %d %s", lo, hi, sc, sb)
					return
				}
				var out struct {
					Results []serve.Assignment `json:"results"`
				}
				if err := json.Unmarshal([]byte(sb), &out); err != nil {
					errc <- err
					return
				}
				mu.Lock()
				copy(results[lo:hi], out.Results)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	killed.Wait()

	// Bit-identical to the healthy single server, query by query.
	for lo := 0; lo < mdl.N(); lo += 100 {
		hi := lo + 100
		if hi > mdl.N() {
			hi = mdl.N()
		}
		pts := make([][]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			pts = append(pts, mdl.Row(i))
		}
		body, _ := json.Marshal(map[string][][]float64{"points": pts})
		sc, sb := rawAssign(t, single.Addr(), string(body))
		if sc != http.StatusOK {
			t.Fatalf("single server rows [%d,%d): HTTP %d", lo, hi, sc)
		}
		var out struct {
			Results []serve.Assignment `json:"results"`
		}
		if err := json.Unmarshal([]byte(sb), &out); err != nil {
			t.Fatal(err)
		}
		for j, want := range out.Results {
			if got := results[lo+j]; got != want {
				t.Fatalf("point %d: fleet-under-failure %+v, single %+v", lo+j, got, want)
			}
		}
	}

	if errs := router.Counters().Get(fleet.CtrErrors); errs != 0 {
		t.Errorf("router surfaced %d errors during failover", errs)
	}
	// The liveness machinery must have noticed the kill (via the failed
	// request or the /healthz probe) within the configured timeout.
	deadline := time.Now().Add(2 * time.Second)
	for router.Counters().Get(fleet.CtrReplicaDeaths) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("killed replica never declared dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
