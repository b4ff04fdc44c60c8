package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// Knob names of the ingest layer (clusterd flags; see README
// "Configuration reference", ingest.* rows — cmd/doccheck enforces that
// every constant here has a matching row).
const (
	// ConfDir is the ingest directory holding WAL segments, compacted
	// artifacts, and the CURRENT pointer (clusterd -ingest-dir; setting it
	// turns the daemon into an ingest node).
	ConfDir = "ingest.dir"
	// ConfWALFsync fsyncs the WAL after every ingest batch (clusterd
	// -ingest-fsync). Off by default: acked points then survive a killed
	// process (the bytes are in the OS page cache) but not a host crash.
	ConfWALFsync = "ingest.wal.fsync"
	// ConfDeltaMax bounds the in-memory delta segment (clusterd
	// -ingest-max-delta); ingests arriving at a full delta are shed with
	// 429 until compaction catches up.
	ConfDeltaMax = "ingest.delta.max"
	// ConfIDBase overrides the first global point ID assigned to ingested
	// points (clusterd -ingest-id-base; default: the base model's highest
	// ID + 1). Fleet shards need disjoint ID ranges — see OPERATIONS.md.
	ConfIDBase = "ingest.id.base"
	// ConfIDStride is the global-ID increment between consecutive ingested
	// points (clusterd -ingest-id-stride; default 1). A fleet of S shards
	// uses stride S with per-shard bases so IDs never collide.
	ConfIDStride = "ingest.id.stride"
	// ConfCompactInterval is the background compaction period (clusterd
	// -compact-interval; 0 disables the loop, leaving POST /compact and
	// fleetctl rollover as the only triggers).
	ConfCompactInterval = "ingest.compact.interval"
	// ConfCompactMin skips a periodic compaction while the delta holds
	// fewer points than this (clusterd -compact-min-points); POST /compact
	// ignores it and compacts whatever is there.
	ConfCompactMin = "ingest.compact.min.points"
)

// Counter names the store reports (merged into the server's /statsz).
const (
	// CtrRequests counts acked ingest batches.
	CtrRequests = "ingest.requests"
	// CtrPoints counts acked ingested points.
	CtrPoints = "ingest.points"
	// CtrShed counts ingest batches rejected because the delta was full.
	CtrShed = "ingest.shed"
	// CtrWALBytes counts bytes appended to the WAL.
	CtrWALBytes = "ingest.wal.bytes"
	// CtrWALSyncs counts WAL fsyncs (0 unless ingest.wal.fsync).
	CtrWALSyncs = "ingest.wal.syncs"
	// CtrReplayed counts points replayed from the WAL at startup.
	CtrReplayed = "ingest.replayed"
	// CtrDeltaScanned counts delta rows scanned by query merges; divide by
	// serve.points for the average delta scan cost per query.
	CtrDeltaScanned = "ingest.delta.scanned"
	// CtrCompactRuns counts completed compactions.
	CtrCompactRuns = "compact.runs"
	// CtrCompactPoints counts delta points promoted into base artifacts.
	CtrCompactPoints = "compact.points"
	// CtrCompactFail counts failed compaction attempts (the store keeps
	// serving and retries on the next trigger).
	CtrCompactFail = "compact.fail"
	// CtrCompactUS accumulates microseconds spent compacting (mostly
	// off-lock: queries keep flowing while the merged index builds).
	CtrCompactUS = "compact.us"
)

// Config carries the ingest knobs (see the Conf* constants above).
type Config struct {
	// Dir is the ingest directory (required).
	Dir string
	// Precision is the scan precision compacted engines are built at
	// (same meaning as serve.Config.Precision).
	Precision string
	// Interval runs the background compactor this often (0 = manual only).
	Interval time.Duration
	// MinPoints makes periodic compactions wait for at least this many
	// delta points (default 1; explicit /compact ignores it).
	MinPoints int
	// MaxDelta bounds the delta segment (default 1<<20 points).
	MaxDelta int
	// Fsync syncs the WAL on every append.
	Fsync bool
	// IDBase / IDStride lay out the global IDs of ingested points
	// (defaults: highest base ID + 1, stride 1). Only consulted on a
	// fresh directory; restarts resume from the persisted CURRENT state.
	IDBase   int64
	IDStride int64
	// OnSwap, when set, receives each post-compaction engine (wire it to
	// serve.Server.UseEngine so admission checks track the new base).
	OnSwap func(*serve.Engine)
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (c *Config) maxDelta() int {
	if c.MaxDelta > 0 {
		return c.MaxDelta
	}
	return 1 << 20
}

func (c *Config) minPoints() int {
	if c.MinPoints > 0 {
		return c.MinPoints
	}
	return 1
}

func (c *Config) stride() int64 {
	if c.IDStride > 0 {
		return c.IDStride
	}
	return 1
}

// current is the CURRENT pointer file: which artifact is the serving base,
// which WAL segment starts the live tail, and the global ID the first
// record of that tail will carry. It is replaced atomically after each
// compaction; a crash between artifact write and CURRENT update just
// replays into the previous base.
type current struct {
	Version  int64  `json:"version"`
	Artifact string `json:"artifact"` // "" = the externally supplied base model
	WALSeq   int64  `json:"wal_seq"`
	NextID   int64  `json:"next_id"`
}

func currentPath(dir string) string { return filepath.Join(dir, "CURRENT") }

func readCurrent(dir string) (*current, error) {
	data, err := os.ReadFile(currentPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var c current
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("ingest: corrupt CURRENT file: %v", err)
	}
	return &c, nil
}

func writeCurrent(dir string, c current) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	tmp := currentPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, currentPath(dir))
}

// Store is the streaming-ingest state behind a serving daemon: an
// immutable base engine plus a mutable delta segment, both consulted by
// every query, with a WAL making acked points durable and a compactor
// periodically promoting the delta into a new base. It implements
// serve.IngestBackend.
//
// Locking: ingestMu serializes writers (and the compactor's snapshot
// boundary); mu guards the shared read state — queries hold RLock for a
// whole batch, writers and the compaction swap take Lock briefly. A
// writer holds ingestMu across WAL append + placement + apply, so replay
// reprocesses records in exactly the order live traffic committed them.
type Store struct {
	cfg      Config
	prec     serve.Precision
	counters *mapreduce.Counters
	walBytes atomic.Int64

	ingestMu sync.Mutex
	wal      *wal

	compactMu sync.Mutex // one compaction at a time

	mu      sync.RWMutex
	eng     *serve.Engine
	version int64
	walSeq  int64 // first live WAL segment
	nextID  int64
	// The delta segment, SoA: point j is dCoords[j*dim:(j+1)*dim] with
	// global ID dIDs[j], cluster dLabels[j], and density dRho[j] (its
	// dc-neighbor count at ingest, grown as later points land nearby).
	dCoords []float64
	dIDs    []int32
	dLabels []int32
	dRho    []float64
	// rhoAdd[i] is the delta density mass folded onto base row i: the
	// number of ingested points within dc of it since the last compaction.
	// Served halo flags read Rho[i]+rhoAdd[i]; compaction bakes it in.
	rhoAdd []float64
	// Swap bookkeeping: the one compaction that can interleave with an
	// in-flight writer's placement promotes the first lastPromoted delta
	// entries to base rows lastBaseN... — apply() remaps with these.
	lastBaseN    int
	lastPromoted int
	compactions  int64

	stopC     chan struct{}
	doneC     chan struct{}
	closeOnce sync.Once

	// hookAfterWAL, when set by a test, runs between the WAL append and
	// the in-memory apply — the window a crash leaves acked-but-invisible
	// records for replay to recover.
	hookAfterWAL func()
}

// Open loads (or creates) the ingest directory: the base model comes from
// CURRENT's artifact when one exists, otherwise from load; live WAL
// segments are replayed on top. The background compactor starts when
// cfg.Interval > 0. Close releases the WAL and stops the compactor.
func Open(cfg Config, load func() (*model.Model, error)) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ingest: Dir is required")
	}
	prec, err := serve.ParsePrecision(cfg.Precision)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, prec: prec, counters: mapreduce.NewCounters()}
	cur, err := readCurrent(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var m *model.Model
	if cur != nil && cur.Artifact != "" {
		if m, err = model.ReadFile(filepath.Join(cfg.Dir, cur.Artifact)); err != nil {
			return nil, fmt.Errorf("ingest: loading compacted base: %v", err)
		}
	} else {
		if m, err = load(); err != nil {
			return nil, err
		}
	}
	if st.eng, err = serve.NewEngine(m, prec); err != nil {
		return nil, err
	}
	if cur != nil {
		st.version, st.walSeq, st.nextID = cur.Version, cur.WALSeq, cur.NextID
	} else {
		st.walSeq = 1
		st.nextID = int64(maxGlobalID(m)) + 1
		if cfg.IDBase > 0 {
			st.nextID = cfg.IDBase
		}
	}
	st.rhoAdd = make([]float64, m.N())

	last, liveBytes, err := replayWAL(cfg.Dir, st.walSeq, st.replayRecord)
	if err != nil {
		return nil, err
	}
	if st.wal, err = openWAL(cfg.Dir, last, cfg.Fsync); err != nil {
		return nil, err
	}
	st.walBytes.Store(liveBytes)
	st.gc()

	if cfg.Interval > 0 {
		st.stopC = make(chan struct{})
		st.doneC = make(chan struct{})
		go st.run()
	}
	return st, nil
}

// Close stops the compactor and closes the WAL. Pending delta points stay
// in the WAL and are replayed by the next Open.
func (st *Store) Close() error {
	var err error
	st.closeOnce.Do(func() {
		if st.stopC != nil {
			close(st.stopC)
			<-st.doneC
		}
		st.ingestMu.Lock()
		err = st.wal.close()
		st.ingestMu.Unlock()
	})
	return err
}

// Engine returns the current base engine (for initial server wiring; the
// OnSwap hook tracks it across compactions).
func (st *Store) Engine() *serve.Engine {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.eng
}

// maxGlobalID returns the highest global point ID of m.
func maxGlobalID(m *model.Model) int32 {
	if n := len(m.RowIDs); n > 0 {
		return m.RowIDs[n-1] // strictly ascending
	}
	return int32(m.N() - 1)
}

// replayRecord reprocesses one WAL batch through the live placement path
// (minus the WAL write it already survived).
func (st *Store) replayRecord(rec walRecord) error {
	dim := st.eng.Model().Dim
	if rec.dim != dim {
		return fmt.Errorf("ingest: WAL record dim %d, model dim %d", rec.dim, dim)
	}
	if rec.firstID != st.nextID {
		return fmt.Errorf("ingest: WAL record IDs start at %d, expected %d (segments replayed out of order?)", rec.firstID, st.nextID)
	}
	for i := 0; i < rec.count(); i++ {
		p := points.Vector(rec.coords[i*dim : (i+1)*dim])
		pl, err := st.place(p)
		if err != nil {
			return fmt.Errorf("ingest: replaying point %d: %v", rec.firstID+int64(i)*st.cfg.stride(), err)
		}
		st.apply(p, pl)
	}
	st.counters.Add(CtrReplayed, int64(rec.count()))
	return nil
}

// IngestPoints appends a validated batch: WAL first (the ack barrier),
// then per-point placement + apply, so each point sees every earlier one.
// Implements serve.IngestBackend.
func (st *Store) IngestPoints(pts [][]float64) ([]serve.IngestResult, error) {
	dim := st.Engine().Model().Dim
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("ingest: point %d has dim %d, model has dim %d", i, len(p), dim)
		}
	}
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()

	st.mu.RLock()
	nd := len(st.dIDs)
	firstID := st.nextID
	st.mu.RUnlock()
	if nd+len(pts) > st.cfg.maxDelta() {
		st.counters.Add(CtrShed, 1)
		return nil, serve.ErrDeltaFull
	}
	if firstID+int64(len(pts))*st.cfg.stride() > math.MaxInt32 {
		return nil, fmt.Errorf("ingest: global point ID space exhausted (next would be %d)", firstID)
	}

	n, err := st.wal.append(firstID, dim, pts)
	if err != nil {
		return nil, fmt.Errorf("ingest: WAL append: %v", err)
	}
	st.walBytes.Add(int64(n))
	st.counters.Add(CtrWALBytes, int64(n))
	if st.cfg.Fsync {
		st.counters.Add(CtrWALSyncs, 1)
	}
	if st.hookAfterWAL != nil {
		st.hookAfterWAL()
	}

	results := make([]serve.IngestResult, len(pts))
	for i, p := range pts {
		pl, err := st.place(p)
		if err != nil {
			// The WAL already holds the batch; fail the whole request so
			// the client's view matches what replay will reconstruct.
			return nil, err
		}
		results[i] = st.apply(p, pl)
	}
	st.counters.Add(CtrRequests, 1)
	st.counters.Add(CtrPoints, int64(len(pts)))
	return results, nil
}

// placement is the computed-but-not-yet-applied state of one new point.
type placement struct {
	version   int64
	asg       serve.Assignment
	label     int32
	rho       float64
	baseFold  []int32 // base rows within dc (each gains +1 mass)
	deltaFold []int32 // delta indices within dc (each gains +1 mass)
}

// place computes a new point's assignment — what a read at p answers on
// the same state (assign) — and the density mass it adds. Reads under
// RLock; the caller applies under Lock.
func (st *Store) place(p points.Vector) (placement, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	// The merge's delta scan is counted by neither ingest.delta.scanned nor
	// ScanStats.Scanned: it is write cost, not read cost.
	out, errs, _, _ := st.assign([]points.Vector{p}, serve.BatchOpts{})
	if errs[0] != nil {
		return placement{}, errs[0]
	}
	pl := placement{version: st.version, asg: out[0], label: out[0].Cluster}
	eng := st.eng
	m := eng.Model()
	dim, dc2 := m.Dim, m.Dc*m.Dc

	// Density mass to base rows: the LSH candidate union stands in for the
	// dc-neighborhood (the same approximation LSH-DDP's local rho uses); an
	// unpruned engine scans every row.
	rows, pruned := eng.CandidateRows(p, nil)
	if pruned {
		for _, r := range rows {
			if points.SqDist(p, m.Row(int(r))) < dc2 {
				pl.baseFold = append(pl.baseFold, r)
			}
		}
	} else {
		for r := 0; r < m.N(); r++ {
			if points.SqDist(p, m.Row(r)) < dc2 {
				pl.baseFold = append(pl.baseFold, int32(r))
			}
		}
	}

	for j := range st.dIDs {
		if points.SqDist(p, st.dCoords[j*dim:(j+1)*dim]) < dc2 {
			pl.deltaFold = append(pl.deltaFold, int32(j))
		}
	}
	pl.rho = float64(len(pl.baseFold) + len(pl.deltaFold))
	return pl, nil
}

// apply commits a placed point to the delta segment and folds its density
// mass, remapping fold indices if a compaction swapped the base while the
// placement was being computed (at most one can: its snapshot boundary
// holds ingestMu, which the calling writer owns).
func (st *Store) apply(p points.Vector, pl placement) serve.IngestResult {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.version != pl.version {
		b0, promoted := st.lastBaseN, st.lastPromoted
		kept := pl.deltaFold[:0]
		for _, j := range pl.deltaFold {
			if int(j) < promoted {
				st.rhoAdd[b0+int(j)]++ // now a base row of the new engine
			} else {
				kept = append(kept, j-int32(promoted))
			}
		}
		pl.deltaFold = kept
	}
	for _, r := range pl.baseFold {
		st.rhoAdd[r]++
	}
	for _, j := range pl.deltaFold {
		st.dRho[j]++
	}
	id := st.nextID
	st.nextID += st.cfg.stride()
	st.dCoords = append(st.dCoords, p...)
	st.dIDs = append(st.dIDs, int32(id))
	st.dLabels = append(st.dLabels, pl.label)
	st.dRho = append(st.dRho, pl.rho)
	return serve.IngestResult{ID: int32(id), Assignment: pl.asg}
}

// localRow translates a base global point ID to its local row.
func localRow(m *model.Model, globalID int32) int {
	if len(m.RowIDs) == 0 {
		return int(globalID)
	}
	return sort.Search(len(m.RowIDs), func(i int) bool { return m.RowIDs[i] >= globalID })
}

// AssignBatch answers queries against base + delta under one RLock, so a
// compaction swap can never interleave inside a batch: the engine scan,
// the delta merge, and the halo adjustment all see one consistent state.
// Implements serve.IngestBackend.
func (st *Store) AssignBatch(qs []points.Vector, opts serve.BatchOpts) ([]serve.Assignment, []error, serve.ScanStats) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out, errs, stats, deltaScanned := st.assign(qs, opts)
	stats.Scanned += deltaScanned
	st.counters.Add(CtrDeltaScanned, deltaScanned)
	return out, errs, stats
}

// assign is the one base + delta merge, behind both reads (AssignBatch)
// and ingest acks (place); the caller holds mu. Base-segment answers are
// bit-identical to the plain engine's (the delta only replaces an answer
// on a strictly smaller squared distance, and delta IDs sort after every
// base ID, so ties keep the base winner); Exact reports whether the base
// engine ran its full scan. deltaScanned counts the delta rows scanned.
func (st *Store) assign(qs []points.Vector, opts serve.BatchOpts) (out []serve.Assignment, errs []error, stats serve.ScanStats, deltaScanned int64) {
	out, errs, stats = st.eng.AssignBatchOpts(qs, opts)
	m := st.eng.Model()
	dim := m.Dim
	nd := len(st.dIDs)
	masked := !opts.ExactOnly && opts.Masks != nil
	for i, q := range qs {
		if errs[i] == nil && out[i].Halo {
			// The engine judged halo against the artifact's rho; folded
			// delta mass may since have lifted the point over the border.
			if row := localRow(m, out[i].Nearest); st.rhoAdd[row] > 0 {
				out[i].Halo = m.Rho[row]+st.rhoAdd[row] < m.Border[out[i].Cluster]
			}
		}
		if nd == 0 {
			continue
		}
		if masked && errs[i] == serve.ErrNoCandidates {
			// The router owns the fleet-wide fallback decision; this
			// shard's delta is merged again on the broadcast exact pass.
			continue
		}
		b, b2 := kernels.NNRange(st.dCoords, dim, q, 0, nd)
		deltaScanned += int64(nd)
		if b < 0 || math.IsInf(b2, 1) {
			continue
		}
		if errs[i] == nil && !(b2 < out[i].Dist2) {
			continue
		}
		lbl := st.dLabels[b]
		out[i] = serve.Assignment{
			Cluster: lbl, Halo: st.dRho[b] < m.Border[lbl],
			Nearest: st.dIDs[b], Dist: math.Sqrt(b2), Dist2: b2,
			PeakDist: points.Dist(q, m.Row(int(m.Peaks[lbl]))), Exact: out[i].Exact,
		}
		errs[i] = nil
	}
	return out, errs, stats, deltaScanned
}

// Info snapshots the store state. Implements serve.IngestBackend.
func (st *Store) Info() serve.IngestInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.infoLocked()
}

func (st *Store) infoLocked() serve.IngestInfo {
	return serve.IngestInfo{
		Version:     st.version,
		BaseN:       st.eng.Model().N(),
		DeltaPoints: len(st.dIDs),
		NextID:      st.nextID,
		WALBytes:    st.walBytes.Load(),
		Compactions: st.compactions,
	}
}

// Counters snapshots the ingest.* / compact.* counters. Implements
// serve.IngestBackend.
func (st *Store) Counters() map[string]int64 { return st.counters.Snapshot() }

// run is the background compaction loop.
func (st *Store) run() {
	defer close(st.doneC)
	t := time.NewTicker(st.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-st.stopC:
			return
		case <-t.C:
			st.mu.RLock()
			nd := len(st.dIDs)
			st.mu.RUnlock()
			if nd < st.cfg.minPoints() {
				continue
			}
			if _, err := st.Compact(); err != nil {
				st.logf("ingest: compaction failed (will retry): %v", err)
			}
		}
	}
}

func (st *Store) logf(format string, args ...any) {
	if st.cfg.Log != nil {
		st.cfg.Log(format, args...)
	}
}
