package ingest

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/model"
)

// tmpFiles lists the temp files left in dir.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// TestCompactFsyncOrder: with Fsync set, a compaction syncs the artifact,
// then CURRENT's temp file before its rename, then the directory — and all
// of it before gc deletes the WAL segment the artifact replaces.
func TestCompactFsyncOrder(t *testing.T) {
	m := trainModel(t, 400, 3)
	dir := t.TempDir()
	st := openStore(t, dir, m, func(c *Config) { c.Fsync = true })
	var synced []string
	st.syncPath = func(path string) error {
		if _, err := os.Stat(walPath(dir, 1)); err != nil {
			t.Errorf("sync of %s after gc removed the replaced WAL segment (%v)", path, err)
		}
		_, tmpErr := os.Stat(currentPath(dir) + ".tmp")
		switch rel, _ := filepath.Rel(dir, path); rel {
		case "CURRENT.tmp":
			if tmpErr != nil {
				t.Errorf("CURRENT.tmp synced after its rename")
			}
		case ".":
			if tmpErr == nil {
				t.Errorf("directory synced before CURRENT's rename")
			}
		}
		synced = append(synced, path)
		return fsyncPath(path)
	}
	if _, err := st.IngestPoints(jitterPts(m, 0, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "model-000001.ddpm"), currentPath(dir) + ".tmp", dir}
	if !reflect.DeepEqual(synced, want) {
		t.Fatalf("synced %q, want %q", synced, want)
	}
	if _, err := os.Stat(walPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("replaced WAL segment not collected after the commit (err=%v)", err)
	}
}

// TestCompactNoSyncWithoutFsync: with Fsync off, a compaction issues no
// sync at all.
func TestCompactNoSyncWithoutFsync(t *testing.T) {
	m := trainModel(t, 400, 3)
	st := openStore(t, t.TempDir(), m, nil)
	st.syncPath = func(path string) error {
		t.Errorf("synced %s with Fsync off", path)
		return nil
	}
	if _, err := st.IngestPoints(jitterPts(m, 0, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactFailureLeavesNoTemp: a compaction whose artifact or CURRENT
// rename fails (a directory squats the target), or whose sync of CURRENT's
// temp file fails, leaves no temp file; once the obstacle is gone the next
// compaction promotes every acked point.
func TestCompactFailureLeavesNoTemp(t *testing.T) {
	m := trainModel(t, 400, 3)
	for _, c := range []struct {
		name  string
		block func(st *Store, dir string) (unblock func())
	}{
		{"artifact rename", func(_ *Store, dir string) func() { return squat(t, filepath.Join(dir, "model-000001.ddpm")) }},
		{"CURRENT rename", func(_ *Store, dir string) func() { return squat(t, currentPath(dir)) }},
		{"CURRENT sync", func(st *Store, _ string) func() {
			st.syncPath = func(path string) error {
				if strings.HasSuffix(path, ".tmp") {
					return errors.New("injected sync failure")
				}
				return nil
			}
			return func() { st.syncPath = fsyncPath }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, m, func(c *Config) { c.Fsync = true })
			pts := jitterPts(m, 0, 20)
			acks, err := st.IngestPoints(pts)
			if err != nil {
				t.Fatal(err)
			}
			unblock := c.block(st, dir)
			if _, err := st.Compact(); err == nil {
				t.Fatal("compaction succeeded")
			}
			if tmps := tmpFiles(t, dir); len(tmps) != 0 {
				t.Fatalf("failed compaction left %v", tmps)
			}
			unblock()
			info, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if info.DeltaPoints != 0 || info.BaseN != m.N()+len(pts) {
				t.Fatalf("post-compaction info: %+v", info)
			}
			checkVisible(t, st, pts, acks, true)
		})
	}
}

// TestCompactKeepsMassFoldedDuringBuild: a batch that lands while a
// compaction persists its artifact — after the snapshot, before the swap —
// folds density mass onto base rows and onto the rows being promoted. The
// swap keeps that mass as residuals, so every row serves the mass of a store
// that ingested the same batches and never compacted: base row i
// Rho[i]+rhoAdd[i], promoted row j its delta density, the late batch its
// own.
func TestCompactKeepsMassFoldedDuringBuild(t *testing.T) {
	m := trainModel(t, 400, 3)
	early := jitterPts(m, 0, 20)
	late := make([][]float64, len(early))
	for i, p := range early {
		late[i] = []float64{p[0] + 5e-4, p[1]}
	}
	ref := openStore(t, t.TempDir(), m, nil)
	for _, batch := range [][][]float64{early, late} {
		if _, err := ref.IngestPoints(batch); err != nil {
			t.Fatal(err)
		}
	}
	st := openStore(t, t.TempDir(), m, func(c *Config) { c.Fsync = true })
	if _, err := st.IngestPoints(early); err != nil {
		t.Fatal(err)
	}
	landed := false
	st.syncPath = func(path string) error {
		if !landed {
			landed = true
			if _, err := st.IngestPoints(late); err != nil {
				t.Errorf("ingest during the build: %v", err)
			}
		}
		return fsyncPath(path)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if !landed || len(st.dRho) != len(late) {
		t.Fatalf("late batch landed %v, %d delta rows after the swap, want %d", landed, len(st.dRho), len(late))
	}
	n, merged := m.N(), st.Engine().Model()
	var baseResidual, promotedResidual bool
	for i := range merged.N() {
		var want float64
		if i < n {
			want = m.Rho[i] + ref.rhoAdd[i]
			baseResidual = baseResidual || st.rhoAdd[i] != 0
		} else {
			want = ref.dRho[i-n]
			promotedResidual = promotedResidual || st.rhoAdd[i] != 0
		}
		got := merged.Rho[i] + st.rhoAdd[i]
		if got != want {
			t.Fatalf("row %d (base %d rows) serves mass %v, the uncompacted store %v", i, n, got, want)
		}
	}
	if !baseResidual || !promotedResidual {
		t.Fatalf("late batch left residuals on base rows %v, on promoted rows %v: want both", baseResidual, promotedResidual)
	}
	if want := ref.dRho[len(early):]; !reflect.DeepEqual(st.dRho, want) {
		t.Fatalf("late batch's densities %v, the uncompacted store's %v", st.dRho, want)
	}
}

// squat makes an empty directory at path, so a rename onto it fails, and
// returns its removal.
func squat(t *testing.T, path string) func() {
	t.Helper()
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionKeepsEngineShape: every compaction swaps in an engine with
// the first one's dim, LSH layouts and fleet index, over a full model and
// over a fleet shard's sub-model (RowIDs, ingest IDs at base N+s and stride
// S, as OPERATIONS.md lays out). The server answers an ingest node's
// queries on whatever engine the store holds, against a request it
// validated on an earlier one, and relies on this.
func TestCompactionKeepsEngineShape(t *testing.T) {
	m := trainModel(t, 400, 3)
	subs, _, err := fleet.Partition(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		m            *model.Model
		base, stride int64
	}{
		{"full", m, 0, 0},
		{"shard", subs[1], int64(m.N() + 1), 2},
	} {
		st := openStore(t, t.TempDir(), tc.m, func(c *Config) { c.IDBase, c.IDStride = tc.base, tc.stride })
		first := st.Engine()
		if first.FleetIndexed() != (len(tc.m.RowIDs) > 0) {
			t.Fatalf("%s: FleetIndexed %v on a model with %d RowIDs", tc.name, first.FleetIndexed(), len(tc.m.RowIDs))
		}
		for round := range 2 {
			if _, err := st.IngestPoints(jitterPts(tc.m, 10*round, 10)); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			eng := st.Engine()
			if eng == first || eng.Model().N() != tc.m.N()+10*(round+1) {
				t.Fatalf("%s round %d: no new engine with the promoted rows", tc.name, round)
			}
			if got, want := eng.Model(), first.Model(); got.Dim != want.Dim || got.LSH != want.LSH || eng.FleetIndexed() != first.FleetIndexed() {
				t.Fatalf("%s round %d: engine dim %d LSH %+v fleet-indexed %v, want %d %+v %v", tc.name, round,
					got.Dim, got.LSH, eng.FleetIndexed(), want.Dim, want.LSH, first.FleetIndexed())
			}
		}
	}
}

// TestIngestReusesCandidateBuffer: a steady-state single-point ingest
// lists its density fold's base rows into the store's buffer, so it
// allocates well under one fold-sized slice. The model puts every row in
// one bucket per layout and within d_c of every point of the unit square,
// so each fold lists all 20 000 rows (80 KB).
func TestIngestReusesCandidateBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops the engine's pooled scratch at random, so allocations do not measure the fold")
	}
	m := oneBucketModel(20_000)
	m.Dc = 2
	st := openStore(t, t.TempDir(), m, nil)
	fold, pruned := st.Engine().CandidateRows(m.Row(0), nil)
	if !pruned || len(fold) != m.N() {
		t.Fatalf("the fold lists %d of %d rows (pruned %v), want all", len(fold), m.N(), pruned)
	}
	foldBytes := uint64(4 * len(fold))
	ingest := func(i int) {
		p := []float64{float64(i%97) * 1e-3, 0.5 + float64(i%89)*1e-3}
		if _, err := st.IngestPoints([][]float64{p}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		ingest(i)
	}
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 10; i < 10+n; i++ {
		ingest(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per single-point ingest; the fold is %d bytes", per, foldBytes)
	if per >= foldBytes/2 {
		t.Fatalf("a single-point ingest allocates %d bytes, want well under the %d-byte fold", per, foldBytes)
	}
}

// oneBucketModel is an n-row model of points spread over the unit square
// whose LSH slot width dwarfs the data, so each layout hashes every row to
// one bucket.
func oneBucketModel(n int) *model.Model {
	rng := rand.New(rand.NewSource(1))
	m := &model.Model{
		Name: "one-bucket", Dim: 2, Dc: 0.01,
		LSH:    model.Params{Seed: 3, M: 3, Pi: 2, W: 1e6},
		Data:   make([]float64, 2*n),
		Rho:    make([]float64, n),
		Labels: make([]int32, n),
		Peaks:  []int32{0},
		Border: []float64{0},
	}
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	for i := range m.Rho {
		m.Rho[i] = 1
	}
	return m
}
