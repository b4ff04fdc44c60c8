package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/points"
)

// The server's half of the streaming-ingest path. The actual delta
// segment, WAL, and compactor live in internal/ingest; the server only
// knows the IngestBackend interface so the two packages stay decoupled
// (ingest imports serve for the engine, never the reverse). Wire a
// backend with SetIngest before Start; the /ingest and /compact endpoints
// answer 501 without one.

// IngestResult acknowledges one ingested point: the global point ID it
// was stored under plus its immediate assignment (the same fields /assign
// reports, computed against base + delta at ingest time).
type IngestResult struct {
	ID int32 `json:"id"`
	Assignment
}

// IngestInfo summarizes an ingest backend's state for /statsz and the
// /compact reply.
type IngestInfo struct {
	// Version counts compactions applied to the serving base: 0 is the
	// artifact the store started from, each compaction increments it.
	Version int64 `json:"version"`
	// BaseN is the row count of the current base segment (the compacted,
	// LSH-indexed model the engine scans).
	BaseN int `json:"base_n"`
	// DeltaPoints is the current in-memory delta segment size; it drops
	// to (near) zero after each compaction.
	DeltaPoints int `json:"delta_points"`
	// NextID is the global point ID the next ingested point will get.
	NextID int64 `json:"next_id"`
	// WALBytes is the byte size of the live WAL segments.
	WALBytes int64 `json:"wal_bytes"`
	// Compactions counts compactions run by this process (Version counts
	// them across restarts).
	Compactions int64 `json:"compactions"`
}

// IngestBackend is the store behind a streaming-ingest server (implemented
// by internal/ingest.Store). All methods are safe for concurrent use.
type IngestBackend interface {
	// IngestPoints appends validated points to the delta segment (WAL
	// first), assigns each immediately, and returns one ack per point in
	// order. ErrDeltaFull means the delta hit its bound and the caller
	// should retry after a compaction.
	IngestPoints(pts [][]float64) ([]IngestResult, error)
	// AssignBatch answers queries against base + delta: the engine's
	// AssignBatchOpts plus an exact scan of the delta segment and
	// delta-density-adjusted halo flags. The server routes every scan
	// through this when a backend is configured.
	AssignBatch(qs []points.Vector, opts BatchOpts) ([]Assignment, []error, ScanStats)
	// Compact merges base + delta into a new versioned artifact and swaps
	// it in, returning the post-compaction state.
	Compact() (IngestInfo, error)
	// Info snapshots the backend state without changing it.
	Info() IngestInfo
	// Counters snapshots the backend's ingest.* / compact.* counters for
	// the server's /statsz rollup.
	Counters() map[string]int64
}

// ErrDeltaFull is returned by IngestBackend.IngestPoints when the delta
// segment reached ingest.delta.max; the server maps it to 429 so clients
// back off until the compactor catches up.
var ErrDeltaFull = fmt.Errorf("ingest: delta segment full, compaction pending")

// SetIngest wires a streaming-ingest backend into the server: /ingest and
// /compact become live, /reload is rejected (the compactor owns the model),
// and every query request is answered through backend.AssignBatch so delta
// points are visible before compaction. Call before Start, together with
// UseEngine(backend's engine); the backend's OnSwap hook should call
// UseEngine to keep admission checks and /statsz in step after compactions.
func (s *Server) SetIngest(b IngestBackend) { s.ingest = b }

// IngestResponse is the /ingest JSON reply. Exported so the fleet router
// decodes shard acks without re-declaring the wire shape.
type IngestResponse struct {
	Results []IngestResult `json:"results"`
}

// handleIngest appends points to the delta segment. Unlike /assign the
// call does not pass the admission gate: the backend serializes writers
// internally and sheds with ErrDeltaFull. Admission validation is
// identical to /assign.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	b := s.ingest
	if b == nil {
		http.Error(w, "not an ingest node (start with -ingest-dir)", http.StatusNotImplemented)
		return
	}
	var body assignRequest
	if s.admit(w, r, &body, &body.Points) == nil {
		return
	}
	start := time.Now()
	results, err := b.IngestPoints(body.Points)
	if err != nil {
		if err == ErrDeltaFull {
			s.counters.Add(CtrShed, 1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.ingestHist.Record(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(IngestResponse{Results: results}) //nolint:errcheck
}

// handleCompact forces a compaction and replies with the post-compaction
// IngestInfo. fleetctl rollover drives fleets forward with this,
// shard-by-shard.
func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	b := s.ingest
	if b == nil {
		http.Error(w, "not an ingest node (start with -ingest-dir)", http.StatusNotImplemented)
		return
	}
	info, err := b.Compact()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info) //nolint:errcheck
}
