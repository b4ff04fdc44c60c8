package ingest

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/knob"
	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// The delta segment's bounds (README "Configuration reference" states
// them). Variables only so tests can lower them.
var (
	// maxDelta bounds the in-memory delta segment; ingests arriving at a
	// full delta are shed with 429 until compaction catches up.
	maxDelta = 1 << 20
	// minPoints skips a periodic compaction while the delta holds fewer
	// points than this; POST /compact ignores it and compacts whatever is
	// there.
	minPoints = 1024
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
	// CtrDeltaScanned counts delta rows evaluated by query merges (the
	// rows of the delta forest's leaves the walks open); divide by
	// serve.points for the average delta cost per query.
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

// Validate refuses a negative Interval, IDBase or IDStride.
func (c *Config) Validate() error {
	return cmp.Or(knob.Count("ingest: Interval", c.Interval),
		knob.Count("ingest: IDBase", c.IDBase), knob.Count("ingest: IDStride", c.IDStride))
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

// writeCurrent replaces CURRENT atomically: temp file, then rename. A
// non-nil sync fsyncs the temp file before the rename. The temp file is
// removed on every error.
func writeCurrent(dir string, c current, sync func(path string) error) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	tmp := currentPath(dir) + ".tmp"
	err = os.WriteFile(tmp, append(data, '\n'), 0o644)
	if err == nil && sync != nil {
		err = sync(tmp)
	}
	if err == nil {
		err = os.Rename(tmp, currentPath(dir))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// fsyncPath fsyncs the file or directory at path.
func fsyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Store is the streaming-ingest state behind a serving daemon: an
// immutable base engine plus a mutable delta segment, both consulted by
// every query, with a WAL making acked points durable and a compactor
// periodically promoting the delta into a new base. It implements
// serve.IngestBackend.
//
// Locking: ingestMu serializes writers and the compactor's snapshot
// boundary and swap; mu guards the shared read state — queries hold RLock
// for a whole batch, writers and the compaction swap take Lock briefly.
// Lock order is ingestMu, then mu. A writer holds ingestMu across WAL
// append + placement + apply, so replay reprocesses records in exactly the
// order live traffic committed them, and a swap lands between two batches.
type Store struct {
	cfg      Config
	prec     serve.Precision
	counters *mapreduce.Counters
	walBytes atomic.Int64

	ingestMu sync.Mutex
	wal      *wal
	// cand is place's fold buffer: a placement's baseFold, then its
	// deltaFold, until its apply. The ingest lock guards it (replay runs in
	// Open, before the store is shared).
	cand []int32

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
	// forest indexes the delta by Bentley and Saxe's logarithmic method:
	// box trees over contiguous delta ranges whose sizes are the set bits
	// of len(dIDs), largest first (treeSize). apply and the compaction
	// swap keep it in step with the delta.
	forest      []kernels.BoxTree
	compactions int64

	stopC     chan struct{}
	doneC     chan struct{}
	closeOnce sync.Once

	// hookAfterWAL, when set by a test, runs between the WAL append and
	// the in-memory apply — the window a crash leaves acked-but-invisible
	// records for replay to recover.
	hookAfterWAL func()
	// syncPath fsyncs a file or directory of a compaction's commit when
	// cfg.Fsync is set; a test swaps it to record the order.
	syncPath func(path string) error
}

// Open loads (or creates) the ingest directory: the base model comes from
// CURRENT's artifact when one exists, otherwise from load; live WAL
// segments are replayed on top. The background compactor starts when
// cfg.Interval > 0. Close releases the WAL and stops the compactor.
func Open(cfg Config, load func() (*model.Model, error)) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ingest: Dir is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.IDStride = cmp.Or(cfg.IDStride, 1)
	prec, err := serve.ParsePrecision(cfg.Precision)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, prec: prec, counters: mapreduce.NewCounters(), syncPath: fsyncPath}
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
			return fmt.Errorf("ingest: replaying point %d: %v", rec.firstID+int64(i)*st.cfg.IDStride, err)
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
	if nd+len(pts) > maxDelta {
		st.counters.Add(CtrShed, 1)
		return nil, serve.ErrDeltaFull
	}
	if firstID+int64(len(pts))*st.cfg.IDStride > math.MaxInt32 {
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

// placement is the computed-but-not-yet-applied state of one new point:
// its assignment and the rows within dc of it, each gaining +1 mass — its
// own density is their count.
type placement struct {
	asg       serve.Assignment
	baseFold  []int32 // base rows; both folds alias Store.cand
	deltaFold []int32 // delta indices
}

// place computes a new point's assignment — what a read at p answers on
// the same state (assign) — and the density mass it adds. Reads under
// RLock; the caller applies under Lock. The caller holds ingestMu, which
// guards the reused fold buffer and keeps a compaction swap from
// landing between place and apply.
func (st *Store) place(p points.Vector) (placement, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	// The merge's delta rows are counted by neither ingest.delta.scanned
	// nor ScanStats.Scanned: they are write cost, not read cost.
	out, errs, _, _ := st.assign([]points.Vector{p}, serve.BatchOpts{})
	if errs[0] != nil {
		return placement{}, errs[0]
	}
	pl := placement{asg: out[0]}
	m := st.eng.Model()
	dim, dc2 := m.Dim, m.Dc*m.Dc

	// Density mass to base rows: those within dc of p that share an LSH
	// bucket with it (LSH-DDP's local rho approximation), listed by the
	// engine into the reused buffer; an unpruned engine scans every row.
	rows, pruned := st.eng.CandidateRows(p, st.cand[:0])
	for r := 0; !pruned && r < m.N(); r++ {
		if points.SqDist(p, m.Row(r)) < dc2 {
			rows = append(rows, int32(r))
		}
	}
	nb := len(rows)
	// Density mass to delta rows: those within dc of p, one radius query
	// per forest tree, as delta indices.
	lo := 0
	for i := range st.forest {
		hi := lo + treeSize(len(st.dIDs)-lo)
		k := len(rows)
		rows = kernels.Within(&st.forest[i], st.dCoords[lo*dim:hi*dim], p, dc2, nil, rows)
		for j := k; j < len(rows); j++ {
			rows[j] += int32(lo)
		}
		lo = hi
	}
	st.cand, pl.baseFold, pl.deltaFold = rows, rows[:nb], rows[nb:]
	return pl, nil
}

// treeSize is the row count of the delta forest's tree that starts rest
// rows before the delta's end: the highest set bit of rest.
func treeSize(rest int) int { return 1 << (bits.Len(uint(rest)) - 1) }

// buildTree rebuilds forest tree i over delta rows [lo, hi), in the
// storage of the tree it replaces, and drops the trees after it. The
// caller holds mu for writing.
func (st *Store) buildTree(i, lo, hi int) {
	dim := st.eng.Model().Dim
	st.forest = slices.Grow(st.forest[:i], 1)[:i+1]
	st.forest[i].Build(st.dCoords[lo*dim:hi*dim], dim)
}

// indexDelta rebuilds the whole forest over the delta rows (the compaction
// swap, after it drops the promoted prefix). The caller holds mu for
// writing.
func (st *Store) indexDelta() {
	st.forest = st.forest[:0]
	for i, lo, n := 0, 0, len(st.dIDs); lo < n; i++ {
		hi := lo + treeSize(n-lo)
		st.buildTree(i, lo, hi)
		lo = hi
	}
}

// apply commits a placed point to the delta segment and folds its density
// mass. The caller holds ingestMu.
func (st *Store) apply(p points.Vector, pl placement) serve.IngestResult {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, r := range pl.baseFold {
		st.rhoAdd[r]++
	}
	for _, j := range pl.deltaFold {
		st.dRho[j]++
	}
	id := st.nextID
	st.nextID += st.cfg.IDStride
	st.dCoords = append(st.dCoords, p...)
	st.dIDs = append(st.dIDs, int32(id))
	st.dLabels = append(st.dLabels, pl.asg.Cluster)
	st.dRho = append(st.dRho, float64(len(pl.baseFold)+len(pl.deltaFold)))
	// The new row and the trailing trees of sizes 1, 2, …, 2^(t−1) — t the
	// trailing zeros of the new length — merge into one tree of 2^t rows.
	n := len(st.dIDs)
	t := bits.TrailingZeros(uint(n))
	st.buildTree(len(st.forest)-t, n-1<<t, n)
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
// engine ran its full scan. A bounded query's delta walks are capped at its
// bound (BatchOpts.Bounds), so a farther delta row never answers it.
// deltaScanned counts the delta rows evaluated.
func (st *Store) assign(qs []points.Vector, opts serve.BatchOpts) (out []serve.Assignment, errs []error, stats serve.ScanStats, deltaScanned int64) {
	out, errs, stats = st.eng.AssignBatchOpts(qs, opts)
	m := st.eng.Model()
	dim := m.Dim
	nd := len(st.dIDs)
	masked := !opts.ExactOnly && opts.Masks != nil
	var acc kernels.TopKAcc
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
		if masked && errs[i] == serve.ErrNoCandidates && opts.Bounds == nil {
			// The router owns the fleet-wide fallback decision; this
			// shard's delta is merged again on the broadcast exact pass.
			// A bounded query has an answer already, so no broadcast
			// follows: its delta merges here.
			continue
		}
		// One walk per forest tree, in ascending range order, each capped
		// at the query's bound and the nearest row so far — the base
		// answer's or an earlier tree's — which a later tree replaces only
		// on a strictly smaller d²: the kept row is the lowest-index
		// nearest, as a flat scan's.
		bound := math.Inf(1)
		if masked && opts.Bounds != nil {
			bound = opts.Bounds[i]
		}
		if errs[i] == nil {
			bound = min(bound, out[i].Dist2)
		}
		b, b2 := -1, math.Inf(1)
		lo := 0
		for t := range st.forest {
			hi := lo + treeSize(nd-lo)
			acc.Reset(1)
			acc.Cap(min(bound, b2))
			ls := kernels.TopKLeaves(&st.forest[t], st.dCoords[lo*dim:hi*dim], q, nil, nil, &acc)
			deltaScanned += int64(ls.Rows)
			if r, r2 := acc.Nearest(); r >= 0 && r2 < b2 {
				b, b2 = lo+r, r2
			}
			lo = hi
		}
		if b < 0 {
			continue
		}
		if errs[i] == nil && !(b2 < out[i].Dist2) {
			continue
		}
		lbl := st.dLabels[b]
		// A certified base answer stays certified: no base row anywhere
		// beats it, so none beats the closer delta row either.
		out[i] = serve.Assignment{
			Cluster: lbl, Halo: st.dRho[b] < m.Border[lbl],
			Nearest: st.dIDs[b], Dist: math.Sqrt(b2), Dist2: b2,
			PeakDist: points.Dist(q, m.Row(int(m.Peaks[lbl]))), Exact: out[i].Exact,
			Certified: errs[i] == nil && out[i].Certified,
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

// run is the background compaction loop: every cfg.Interval, it compacts
// a delta of at least minPoints points.
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
			if nd < minPoints {
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
