package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lsh"
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
	hr, err := core.RunLSHHalo(context.Background(), ds, res, labels, core.LSHConfig{Config: core.Config{Seed: 7}})
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

// lower sets the package bound *v to n until t ends. Call it before
// openStore, so the bound is restored only after the store has closed.
func lower(t *testing.T, v *int, n int) {
	old := *v
	*v = n
	t.Cleanup(func() { *v = old })
}

func TestIngestShedsWhenDeltaFull(t *testing.T) {
	m := trainModel(t, 400, 3)
	lower(t, &maxDelta, 4)
	st := openStore(t, t.TempDir(), m, nil)

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

// TestPeriodicCompactor drives the background loop on a short interval: it
// leaves a delta below minPoints alone, compacts once the delta reaches it —
// exactly once, since the emptied delta is below the gate again — and has
// stopped by the time Close returns.
func TestPeriodicCompactor(t *testing.T) {
	const tick = 5 * time.Millisecond
	m := trainModel(t, 400, 3)
	lower(t, &minPoints, 4)
	st := openStore(t, t.TempDir(), m, func(c *Config) { c.Interval = tick })
	settle := func() {
		t.Helper()
		time.Sleep(20 * tick)
	}

	if _, err := st.IngestPoints(jitterPts(m, 0, 3)); err != nil {
		t.Fatal(err)
	}
	settle()
	if info := st.Info(); info.Compactions != 0 || info.DeltaPoints != 3 {
		t.Fatalf("below the gate: %+v, want no compaction and 3 delta points", info)
	}

	if _, err := st.IngestPoints(jitterPts(m, 3, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Info().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a delta at the gate was never compacted")
		}
		time.Sleep(tick)
	}
	settle()
	if info := st.Info(); info.Compactions != 1 || info.DeltaPoints != 0 || info.BaseN != m.N()+4 {
		t.Fatalf("after the gate: %+v, want one compaction promoting 4 points", info)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.doneC:
	default:
		t.Fatal("compaction loop still running after Close returned")
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

// TestFoldIsRowsWithinDc: with every row in one bucket per layout, and with
// no index at all, an ingested point folds +1 onto exactly the base rows
// strictly within d_c of it.
func TestFoldIsRowsWithinDc(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		m := oneBucketModel(2000)
		m.Dc = 0.05
		if !indexed {
			m.LSH = model.Params{}
		}
		st := openStore(t, t.TempDir(), m, nil)
		pts := [][]float64{{0.5, 0.5}, {0.1, 0.9}, m.Row(7), {0.5, 0.5}}
		if _, err := st.IngestPoints(pts); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < m.N(); r++ {
			want := 0.0
			for _, p := range pts {
				if points.SqDist(p, m.Row(r)) < m.Dc*m.Dc {
					want++
				}
			}
			if st.rhoAdd[r] != want {
				t.Fatalf("indexed=%v: row %d gained %v mass, want %v", indexed, r, st.rhoAdd[r], want)
			}
		}
	}
}

// BenchmarkStoreIngest times the write path one point per IngestPoints call
// — WAL append, the read merge that answers the ack, the density fold onto
// base and delta rows, apply — at the benchmark harness's serving geometry:
// 200 000 rows of dimension 8 in 16 blobs of σ 2.5 in a 100-box, 10 layouts
// of 3 functions with the width solved for d_c 8.4, and points jittered off
// stored rows by d_c/2 per coordinate. It reports the base rows each point
// folds onto.
func BenchmarkStoreIngest(b *testing.B) {
	const n, dim, clusters, dc = 200_000, 8, 16, 8.4
	rng := rand.New(rand.NewSource(20170419))
	centers := make([]float64, clusters*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 100
	}
	w, err := lsh.SolveWidth(0.99, dc, 3, 10)
	if err != nil {
		b.Fatal(err)
	}
	m := &model.Model{
		Name: "ingest-bench", Dim: dim, Dc: dc,
		LSH:    model.Params{Seed: 5, M: 10, Pi: 3, W: w},
		Data:   make([]float64, n*dim),
		Rho:    make([]float64, n),
		Labels: make([]int32, n),
		Peaks:  make([]int32, clusters),
		Border: make([]float64, clusters),
	}
	for r := 0; r < n; r++ {
		c := rng.Intn(clusters)
		m.Labels[r], m.Rho[r], m.Peaks[c] = int32(c), 1, int32(r)
		for j := 0; j < dim; j++ {
			m.Data[r*dim+j] = centers[c*dim+j] + rng.NormFloat64()*2.5
		}
	}
	pts := make([][]float64, 4096)
	for i := range pts {
		p := append([]float64(nil), m.Row(rng.Intn(n))...)
		for j := range p {
			p[j] += rng.NormFloat64() * dc / 2
		}
		pts[i] = p
	}
	st, err := Open(Config{Dir: b.TempDir(), Precision: "f64"}, loaderFor(m))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.Run("rows=200000", func(b *testing.B) {
		var before float64
		for _, v := range st.rhoAdd {
			before += v
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.IngestPoints(pts[i%len(pts) : i%len(pts)+1]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		var after float64
		for _, v := range st.rhoAdd {
			after += v
		}
		b.ReportMetric((after-before)/float64(b.N), "folded/point")
	})
}

// TestOpenRefusesNegativeKnobs: Open refuses a negative IDBase, IDStride or
// Interval, naming it, before it creates the directory or loads a model —
// values the defaults would otherwise quietly replace.
func TestOpenRefusesNegativeKnobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"IDBase", func(c *Config) { c.IDBase = -1 }},
		{"IDStride", func(c *Config) { c.IDStride = -1 }},
		{"Interval", func(c *Config) { c.Interval = -time.Second }},
	} {
		cfg := Config{Dir: filepath.Join(t.TempDir(), "store")}
		tc.mut(&cfg)
		loads := 0
		st, err := Open(cfg, func() (*model.Model, error) { loads++; return nil, fmt.Errorf("no model") })
		if err == nil {
			st.Close() //nolint:errcheck
		}
		if _, statErr := os.Stat(cfg.Dir); err == nil || !strings.Contains(err.Error(), tc.name) || !os.IsNotExist(statErr) || loads != 0 {
			t.Errorf("%s: err %v, dir stat %v, %d loads; want %s refused before the directory or the model", tc.name, err, statErr, loads, tc.name)
		}
	}
}
