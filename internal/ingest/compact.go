package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// Compact promotes the delta segment into a new versioned base artifact
// and swaps it in. The protocol keeps queries available and base answers
// bit-identical throughout:
//
//  1. Snapshot boundary (under ingestMu, briefly): roll the WAL and copy
//     the delta prefix plus the folded rho mass. Every copied point's WAL
//     record now lives in a segment older than the active one.
//  2. Build (lock-free, the expensive part): merge base + snapshot into a
//     new model — base rows keep their indices and coordinates, rho gains
//     the folded mass, delta points append as new rows with their ingest
//     IDs — and index it at the configured precision. Queries keep
//     flowing against the old state.
//  3. Persist: stream model-%06d.ddpm to disk atomically, then flip
//     CURRENT to it (with cfg.Fsync, each durable before the next; see
//     persist). A crash before the CURRENT flip replays everything into
//     the old base; after it, only the rolled-forward tail replays on the
//     new.
//  4. Swap (under ingestMu, then mu, briefly — so between two writer
//     batches): install the engine, drop the promoted delta prefix, re-index
//     the rows it keeps, and re-base rhoAdd — mass that arrived after the
//     snapshot survives as residuals on the new rows.
//  5. GC: delete WAL segments and artifacts CURRENT no longer references.
//
// Implements serve.IngestBackend.
func (st *Store) Compact() (serve.IngestInfo, error) {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	start := time.Now()

	// 1. Snapshot boundary.
	st.ingestMu.Lock()
	st.mu.RLock()
	promoted := len(st.dIDs)
	if promoted == 0 {
		info := st.infoLocked()
		st.mu.RUnlock()
		st.ingestMu.Unlock()
		return info, nil
	}
	live := st.eng
	base := live.Model()
	dim := base.Dim
	coords := append([]float64(nil), st.dCoords[:promoted*dim]...)
	ids := append([]int32(nil), st.dIDs[:promoted]...)
	labels := append([]int32(nil), st.dLabels[:promoted]...)
	rho := append([]float64(nil), st.dRho[:promoted]...)
	add := append([]float64(nil), st.rhoAdd...)
	version := st.version
	// No writer is mid-flight (we hold ingestMu), so the snapshot covers
	// the whole delta and nextID is exactly the boundary the rolled-to
	// segment starts at.
	boundNextID := st.nextID
	st.mu.RUnlock()
	if err := st.wal.roll(); err != nil {
		st.ingestMu.Unlock()
		st.counters.Add(CtrCompactFail, 1)
		return serve.IngestInfo{}, fmt.Errorf("ingest: rolling WAL: %v", err)
	}
	newSeq := st.wal.seq
	st.ingestMu.Unlock()

	// 2. Build, off-lock.
	merged := mergeModel(base, coords, ids, labels, rho, add)
	eng, err := live.Successor(merged, st.prec)
	if err != nil {
		st.counters.Add(CtrCompactFail, 1)
		return serve.IngestInfo{}, fmt.Errorf("ingest: indexing merged model: %v", err)
	}

	// 3. Persist artifact, then flip CURRENT.
	artifact := fmt.Sprintf("model-%06d.ddpm", version+1)
	cur := current{Version: version + 1, Artifact: artifact, WALSeq: newSeq, NextID: boundNextID}
	if err := st.persist(merged, cur); err != nil {
		st.counters.Add(CtrCompactFail, 1)
		return serve.IngestInfo{}, err
	}

	// 4. Swap.
	st.ingestMu.Lock()
	st.mu.Lock()
	st.eng = eng
	st.version = version + 1
	st.walSeq = newSeq
	newAdd := make([]float64, merged.N())
	for i := 0; i < base.N(); i++ {
		newAdd[i] = st.rhoAdd[i] - add[i] // mass folded after the snapshot
	}
	for j := 0; j < promoted; j++ {
		newAdd[base.N()+j] = st.dRho[j] - rho[j]
	}
	st.rhoAdd = newAdd
	st.dCoords = append([]float64(nil), st.dCoords[promoted*dim:]...)
	st.dIDs = append([]int32(nil), st.dIDs[promoted:]...)
	st.dLabels = append([]int32(nil), st.dLabels[promoted:]...)
	st.dRho = append([]float64(nil), st.dRho[promoted:]...)
	st.indexDelta()
	st.compactions++
	info := st.infoLocked()
	st.mu.Unlock()
	st.ingestMu.Unlock()
	if st.cfg.OnSwap != nil {
		st.cfg.OnSwap(eng)
	}

	// 5. GC.
	st.gc()

	st.counters.Add(CtrCompactRuns, 1)
	st.counters.Add(CtrCompactPoints, int64(promoted))
	st.counters.Add(CtrCompactUS, time.Since(start).Microseconds())
	st.logf("ingest: compacted %d points into %s (base %d rows, version %d, %v)",
		promoted, artifact, merged.N(), version+1, time.Since(start).Round(time.Millisecond))
	return info, nil
}

// persist writes the compacted artifact and then flips CURRENT to it.
// With cfg.Fsync set, every step is durable before the next and before gc
// deletes the WAL segments the artifact replaces: fsync the artifact,
// fsync CURRENT's temp file, rename it, fsync the directory (which holds
// both renames). Without it, no sync is issued.
func (st *Store) persist(merged *model.Model, cur current) error {
	var sync func(string) error
	if st.cfg.Fsync {
		sync = st.syncPath
	}
	path := filepath.Join(st.cfg.Dir, cur.Artifact)
	err := merged.WriteFile(path)
	if err == nil && sync != nil {
		err = sync(path)
	}
	if err != nil {
		return fmt.Errorf("ingest: writing artifact: %v", err)
	}
	if err := writeCurrent(st.cfg.Dir, cur, sync); err != nil {
		return fmt.Errorf("ingest: flipping CURRENT: %v", err)
	}
	if sync != nil {
		if err := sync(st.cfg.Dir); err != nil {
			return fmt.Errorf("ingest: syncing %s: %v", st.cfg.Dir, err)
		}
	}
	return nil
}

// mergeModel builds the compacted model: base rows first (indices, data,
// labels, peaks, borders unchanged; rho gains the folded delta mass), the
// promoted delta appended after them. Delta IDs were assigned monotonically
// above every base ID, so the RowIDs invariant (strictly ascending) holds
// and NN ties keep resolving to the base winner.
func mergeModel(base *model.Model, coords []float64, ids, labels []int32, rho, add []float64) *model.Model {
	n, p := base.N(), len(ids)
	m := &model.Model{
		Name: base.Name, Dim: base.Dim, Dc: base.Dc, LSH: base.LSH,
		Data:   append(append(make([]float64, 0, len(base.Data)+len(coords)), base.Data...), coords...),
		Rho:    make([]float64, 0, n+p),
		Labels: append(append(make([]int32, 0, n+p), base.Labels...), labels...),
		Peaks:  append([]int32(nil), base.Peaks...),
		Border: append([]float64(nil), base.Border...),
	}
	for i, r := range base.Rho {
		m.Rho = append(m.Rho, r+add[i])
	}
	m.Rho = append(m.Rho, rho...)
	identity := len(base.RowIDs) == 0
	if identity {
		for j, id := range ids {
			if int64(id) != int64(n+j) {
				identity = false
				break
			}
		}
	}
	if !identity {
		rid := make([]int32, 0, n+p)
		if len(base.RowIDs) > 0 {
			rid = append(rid, base.RowIDs...)
		} else {
			for i := 0; i < n; i++ {
				rid = append(rid, int32(i))
			}
		}
		m.RowIDs = append(rid, ids...)
	}
	if len(base.Q8Codes) > 0 {
		// BuildCompact on one goroutine: a compaction runs beside live
		// queries (serve.Engine.Successor).
		if codes, p, ok := points.QuantizeQ8Workers(m.Data, m.Dim, 1); ok {
			m.Q8Codes, m.Q8Min, m.Q8Scale = codes, p.Min, p.Scale
		}
	}
	return m
}

// gc removes WAL segments below the live boundary and artifacts CURRENT
// no longer points at, then refreshes the live-byte gauge. Failures are
// logged, not fatal — stale files are re-collected on the next pass.
func (st *Store) gc() {
	st.mu.RLock()
	walSeq, version := st.walSeq, st.version
	st.mu.RUnlock()
	seqs, err := walSegments(st.cfg.Dir)
	if err != nil {
		st.logf("ingest: gc: %v", err)
		return
	}
	var live int64
	for _, seq := range seqs {
		path := walPath(st.cfg.Dir, seq)
		if seq < walSeq {
			if err := os.Remove(path); err != nil {
				st.logf("ingest: gc: %v", err)
			}
			continue
		}
		if fi, err := os.Stat(path); err == nil {
			live += fi.Size()
		}
	}
	st.walBytes.Store(live)
	keep := fmt.Sprintf("model-%06d.ddpm", version)
	ents, err := os.ReadDir(st.cfg.Dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "model-") && strings.HasSuffix(name, ".ddpm") && name != keep {
			if err := os.Remove(filepath.Join(st.cfg.Dir, name)); err != nil {
				st.logf("ingest: gc: %v", err)
			}
		}
	}
}
