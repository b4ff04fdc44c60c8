package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// trainModel runs the full offline pipeline on a seeded blob dataset and
// exports the artifact the store serves as its initial base.
func trainModel(t *testing.T, n, k int) *model.Model {
	t.Helper()
	ds := dataset.Blobs("ingest-test", n, 2, k, 100, 2.5, 7)
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

func loaderFor(m *model.Model) func() (*model.Model, error) {
	return func() (*model.Model, error) { return m, nil }
}

func openStore(t *testing.T, dir string, m *model.Model, mut func(*Config)) *Store {
	t.Helper()
	cfg := Config{Dir: dir, Precision: "f64"}
	if mut != nil {
		mut(&cfg)
	}
	st, err := Open(cfg, loaderFor(m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) //nolint:errcheck // idempotent
	return st
}

// jitterPts builds count distinct points near base-model rows: close enough
// to land in populated LSH buckets, offset enough never to collide with a
// stored point.
func jitterPts(m *model.Model, start, count int) [][]float64 {
	pts := make([][]float64, count)
	for i := range pts {
		row := m.Row((start + i) % m.N())
		pts[i] = []float64{row[0] + 0.001 + float64(start+i)*1e-5, row[1] - 0.002}
	}
	return pts
}

func assignAt(t *testing.T, st *Store, p []float64, exact bool) serve.Assignment {
	t.Helper()
	out, errs, _ := st.AssignBatch([]points.Vector{p}, serve.BatchOpts{ExactOnly: exact})
	if errs[0] != nil {
		t.Fatalf("assign at %v: %v", p, errs[0])
	}
	return out[0]
}

// checkVisible requires every acked point to answer a query at its own
// coordinates with itself as the nearest stored point.
func checkVisible(t *testing.T, st *Store, pts [][]float64, acks []serve.IngestResult, exact bool) {
	t.Helper()
	for i, p := range pts {
		got := assignAt(t, st, p, exact)
		if got.Nearest != acks[i].ID {
			t.Fatalf("query at ingested point %d: nearest %d, want acked ID %d", i, got.Nearest, acks[i].ID)
		}
		if got.Dist2 != 0 {
			t.Fatalf("query at ingested point %d: dist2 %v, want 0", i, got.Dist2)
		}
		if got.Cluster != acks[i].Cluster {
			t.Fatalf("query at ingested point %d: cluster %d, ack said %d", i, got.Cluster, acks[i].Cluster)
		}
	}
}

func TestIngestImmediateVisibility(t *testing.T) {
	m := trainModel(t, 600, 3)
	st := openStore(t, t.TempDir(), m, nil)

	pts := jitterPts(m, 0, 25)
	acks, err := st.IngestPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(acks) != len(pts) {
		t.Fatalf("%d acks for %d points", len(acks), len(pts))
	}
	wantID := int64(maxGlobalID(m)) + 1
	for i, a := range acks {
		if int64(a.ID) != wantID+int64(i) {
			t.Fatalf("ack %d: ID %d, want %d", i, a.ID, wantID+int64(i))
		}
	}
	checkVisible(t, st, pts, acks, false)
	checkVisible(t, st, pts, acks, true)

	info := st.Info()
	if info.Version != 0 || info.DeltaPoints != len(pts) || info.BaseN != m.N() {
		t.Fatalf("info after ingest: %+v", info)
	}
	if info.NextID != wantID+int64(len(pts)) {
		t.Fatalf("next ID %d, want %d", info.NextID, wantID+int64(len(pts)))
	}
	if got := st.Counters()[CtrPoints]; got != int64(len(pts)) {
		t.Fatalf("%s = %d, want %d", CtrPoints, got, len(pts))
	}
}

// TestPlaceMatchesRead: an ingest ack is what /assign answers on the same
// state, field for field — here where a delta row is nearer than the base
// engine's pruned answer, so Exact must stay the base engine's false.
func TestPlaceMatchesRead(t *testing.T) {
	m := trainModel(t, 600, 3)
	st := openStore(t, t.TempDir(), m, nil)
	pts := jitterPts(m, 0, 5)
	acks, err := st.IngestPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pts {
		p := points.Vector{x[0] + 1e-4, x[1]}
		pl, err := st.place(p)
		if err != nil {
			t.Fatal(err)
		}
		out, errs, _ := st.AssignBatch([]points.Vector{p}, serve.BatchOpts{})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		if out[0].Nearest != acks[i].ID {
			t.Fatalf("point %d: read answered %+v, want delta row %d", i, out[0], acks[i].ID)
		}
		if pl.asg != out[0] {
			t.Fatalf("point %d: ack %+v, read %+v", i, pl.asg, out[0])
		}
	}
}

// TestReplayAfterKill simulates a clusterd killed mid-ingest: several acked
// batches plus one batch that reached the WAL but died before the in-memory
// apply (the hookAfterWAL window). A reopened store must recover every
// acked point with its original ID and assignment, and replay the
// WAL-but-unacked batch too (at-least-once).
func TestReplayAfterKill(t *testing.T) {
	m := trainModel(t, 600, 3)
	dir := t.TempDir()
	st := openStore(t, dir, m, nil)

	var pts [][]float64
	var acks []serve.IngestResult
	for b := 0; b < 3; b++ {
		batch := jitterPts(m, b*7, 7)
		res, err := st.IngestPoints(batch)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, batch...)
		acks = append(acks, res...)
	}

	// The killed batch: durable in the WAL, never applied, never acked.
	killed := jitterPts(m, 100, 5)
	st.hookAfterWAL = func() { panic("chaos: killed after WAL append") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("hookAfterWAL did not fire")
			}
		}()
		st.IngestPoints(killed) //nolint:errcheck // dies by panic
	}()
	// Abandon st without Close, like a killed process. Reopen the directory.
	re := openStore(t, dir, m, nil)

	if got := re.Counters()[CtrReplayed]; got != int64(len(pts)+len(killed)) {
		t.Fatalf("replayed %d points, want %d", got, len(pts)+len(killed))
	}
	checkVisible(t, re, pts, acks, false)
	// Replay reprocesses records through the same placement path in commit
	// order, so the reconstructed delta state must match the crashed
	// store's exactly (for the points the crashed store applied).
	st.mu.RLock()
	re.mu.RLock()
	for i := range acks {
		// The killed batch replays after these, so their rho may have
		// grown past the crashed store's — never shrunk.
		if re.dIDs[i] != st.dIDs[i] || re.dLabels[i] != st.dLabels[i] || re.dRho[i] < st.dRho[i] {
			t.Errorf("delta entry %d diverged on replay: id %d/%d label %d/%d rho %v/%v",
				i, re.dIDs[i], st.dIDs[i], re.dLabels[i], st.dLabels[i], re.dRho[i], st.dRho[i])
		}
	}
	re.mu.RUnlock()
	st.mu.RUnlock()
	if t.Failed() {
		t.FailNow()
	}
	// The killed batch was replayed with the IDs it would have been acked
	// under, and new ingests continue after it.
	info := re.Info()
	if want := int64(maxGlobalID(m)) + 1 + int64(len(pts)+len(killed)); info.NextID != want {
		t.Fatalf("next ID after replay: %d, want %d", info.NextID, want)
	}
	if got := assignAt(t, re, killed[0], false); got.Dist2 != 0 {
		t.Fatalf("killed-batch point not replayed: %+v", got)
	}
}

// TestReplayTruncatesTornTail reopens a directory whose live WAL segment
// ends in a half-written record: the tear is discarded, every acked point
// survives.
func TestReplayTruncatesTornTail(t *testing.T) {
	m := trainModel(t, 600, 3)
	dir := t.TempDir()
	st := openStore(t, dir, m, nil)
	pts := jitterPts(m, 0, 9)
	acks, err := st.IngestPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openStore(t, dir, m, nil)
	checkVisible(t, re, pts, acks, false)
	if got := re.Info().DeltaPoints; got != len(pts) {
		t.Fatalf("delta holds %d points after torn-tail replay, want %d", got, len(pts))
	}
}

func TestCompactionPromotesDelta(t *testing.T) {
	m := trainModel(t, 500, 3)
	dir := t.TempDir()
	st := openStore(t, dir, m, nil)

	pts := jitterPts(m, 0, 30)
	pts = append(pts, []float64{m.Row(0)[0] + 1e-9, m.Row(0)[1]}) // within dc of row 0
	acks, err := st.IngestPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	st.mu.RLock()
	if st.rhoAdd[0] < 1 {
		st.mu.RUnlock()
		t.Fatalf("rhoAdd[0] = %v after ingesting a copy of row 0, want >= 1", st.rhoAdd[0])
	}
	addBefore := append([]float64(nil), st.rhoAdd...)
	st.mu.RUnlock()

	// Base-coordinate queries must be bit-identical across the compaction.
	queries := make([]points.Vector, 60)
	for i := range queries {
		queries[i] = m.Row(i * 7 % m.N())
	}
	pre, preErrs, _ := st.AssignBatch(queries, serve.BatchOpts{})

	info, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.DeltaPoints != 0 || info.BaseN != m.N()+len(pts) || info.Compactions != 1 {
		t.Fatalf("post-compaction info: %+v", info)
	}
	if _, err := os.Stat(currentPath(dir)); err != nil {
		t.Fatalf("CURRENT not written: %v", err)
	}
	if _, err := os.Stat(walPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("pre-compaction WAL segment not collected (err=%v)", err)
	}

	post, postErrs, _ := st.AssignBatch(queries, serve.BatchOpts{})
	for i := range queries {
		if preErrs[i] != nil || postErrs[i] != nil {
			t.Fatalf("query %d errored: pre=%v post=%v", i, preErrs[i], postErrs[i])
		}
		if pre[i] != post[i] {
			t.Fatalf("base query %d changed across compaction:\npre  %+v\npost %+v", i, pre[i], post[i])
		}
	}
	checkVisible(t, st, pts, acks, true)

	// The merged base baked the folded density mass in.
	m2 := st.Engine().Model()
	for i := 0; i < m.N(); i++ {
		if want := m.Rho[i] + addBefore[i]; m2.Rho[i] != want {
			t.Fatalf("merged rho[%d] = %v, want base %v + folded %v", i, m2.Rho[i], m.Rho[i], addBefore[i])
		}
	}

	// A restart must come back from the compacted artifact, not the loader.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir, Precision: "f64"}, func() (*model.Model, error) {
		return nil, fmt.Errorf("loader must not be consulted once CURRENT names an artifact")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck
	ri := re.Info()
	if ri.Version != 1 || ri.BaseN != m.N()+len(pts) || ri.DeltaPoints != 0 {
		t.Fatalf("reopened info: %+v", ri)
	}
	if ri.NextID != info.NextID {
		t.Fatalf("reopened next ID %d, want %d", ri.NextID, info.NextID)
	}
	checkVisible(t, re, pts, acks, true)
}

func TestIngestShedsWhenDeltaFull(t *testing.T) {
	m := trainModel(t, 400, 3)
	st := openStore(t, t.TempDir(), m, func(c *Config) { c.MaxDelta = 4 })

	if _, err := st.IngestPoints(jitterPts(m, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestPoints(jitterPts(m, 3, 2)); err != serve.ErrDeltaFull {
		t.Fatalf("over-bound ingest returned %v, want ErrDeltaFull", err)
	}
	if got := st.Counters()[CtrShed]; got != 1 {
		t.Fatalf("%s = %d, want 1", CtrShed, got)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestPoints(jitterPts(m, 3, 2)); err != nil {
		t.Fatalf("ingest after compaction still shed: %v", err)
	}
}

// TestCompactionRacesTraffic runs concurrent ingests, query batches, and
// compactions (the -race target of this package): when the dust settles,
// every acked point must be present exactly once in the final base.
func TestCompactionRacesTraffic(t *testing.T) {
	m := trainModel(t, 400, 3)
	st := openStore(t, t.TempDir(), m, nil)

	const writers, batches, perBatch = 4, 25, 3
	type acked struct {
		pt []float64
		id int32
	}
	var (
		mu  sync.Mutex
		log []acked
	)
	done := make(chan struct{})
	var writerWG, auxWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for b := 0; b < batches; b++ {
				pts := make([][]float64, perBatch)
				for i := range pts {
					// Distinct coordinates away from the training box so
					// each point is its own unique nearest neighbor.
					off := float64(w*batches*perBatch+b*perBatch+i) * 1e-3
					pts[i] = []float64{150 + off, 150 - off}
				}
				res, err := st.IngestPoints(pts)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				for i, a := range res {
					log = append(log, acked{pts[i], a.ID})
				}
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		auxWG.Add(1)
		go func(r int) {
			defer auxWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				var probe *acked
				if len(log) > 0 {
					probe = &log[rng.Intn(len(log))]
				}
				mu.Unlock()
				qs := []points.Vector{m.Row(rng.Intn(m.N()))}
				if probe != nil {
					qs = append(qs, probe.pt)
				}
				out, errs, _ := st.AssignBatch(qs, serve.BatchOpts{})
				for i := range errs {
					if errs[i] != nil {
						t.Errorf("reader %d: %v", r, errs[i])
						return
					}
				}
				if probe != nil && out[1].Nearest != probe.id {
					t.Errorf("reader %d: acked point %d answered %d", r, probe.id, out[1].Nearest)
					return
				}
			}
		}(r)
	}
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := st.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	writerWG.Wait()
	close(done)
	auxWG.Wait()
	if t.Failed() {
		return
	}

	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	final := st.Engine().Model()
	want := m.N() + writers*batches*perBatch
	if final.N() != want {
		t.Fatalf("final base holds %d rows, want %d (lost or duplicated deltas)", final.N(), want)
	}
	seen := make(map[int32]bool)
	for _, id := range final.RowIDs {
		if seen[id] {
			t.Fatalf("global ID %d appears twice in the final base", id)
		}
		seen[id] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if len(log) != writers*batches*perBatch {
		t.Fatalf("acked %d points, want %d", len(log), writers*batches*perBatch)
	}
	for _, a := range log {
		if len(final.RowIDs) > 0 && !seen[a.id] {
			t.Fatalf("acked ID %d missing from the final base", a.id)
		}
		got := assignAt(t, st, a.pt, true)
		if got.Nearest != a.id || got.Dist2 != 0 {
			t.Fatalf("acked point %d: final answer %+v", a.id, got)
		}
	}
}
