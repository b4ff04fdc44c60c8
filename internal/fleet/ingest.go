package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/lsh"
	"repro/internal/points"
	"repro/internal/serve"
)

// Router-side streaming ingest: POST /ingest on the router routes each
// point to the shard owning its certifying LSH bucket — the bucket of the
// layout lsh.Layouts.GuaranteeRadius names, which a read's first round
// asks — so a query at the point is answered by that shard, which sees it
// before any compaction, and a query near it probes that shard with high
// probability. The shard stores it in its delta segment and the next
// fleetctl rollover (or its own periodic compactor) bakes it into the
// shard's base artifact.
//
// Ingest calls are never hedged and never retried: a duplicate ingest is a
// duplicate point, which is worse than a failed request the client can
// retry knowingly. A batch that reaches a shard with more than one replica
// is refused with 501 before anything is written: replicas keep separate
// delta segments under one ID layout, so spreading a shard's ingests over
// them would split its delta and hand out each global ID twice. A
// multi-shard batch that fails on one shard reports the failure even though
// other shards may have committed their slices — at-least-once semantics;
// see OPERATIONS.md.

// Counter names of the router's ingest path.
const (
	// CtrIngestRequests counts admitted router /ingest requests.
	CtrIngestRequests = "fleet.ingest.requests"
	// CtrIngestPoints counts points routed to shard delta segments.
	CtrIngestPoints = "fleet.ingest.points"
	// CtrIngestErrors counts /ingest requests failed with a 5xx.
	CtrIngestErrors = "fleet.ingest.errors"
	// CtrIngestShed counts /ingest requests rejected 429 (a shard's delta
	// segment is full and its compactor is behind).
	CtrIngestShed = "fleet.ingest.shed"
)

// ingestShardBatch is the slice of an /ingest request routed to one shard.
type ingestShardBatch struct {
	shard *shardClient
	idxs  []int
	pts   [][]float64

	resp   *serve.IngestResponse
	status int
	msg    string
}

// handleIngest validates, routes each point to its owning shard, and
// reassembles the per-point acks in request order.
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var body assignRequest
	if !serve.DecodePoints(w, req, &body, &body.Points, r.cfg.Manifest.Dim) {
		return
	}

	batches := make(map[int]*ingestShardBatch)
	var kb lsh.KeyBuf
	for i, p := range body.Points {
		r.layouts.Hash(&kb, points.Vector(p))
		_, c := r.layouts.GuaranteeRadius(&kb)
		owner := r.place.Owner(string(kb.Key(c)))
		b := batches[owner]
		if b == nil {
			b = &ingestShardBatch{shard: r.shards[owner]}
			batches[owner] = b
		}
		b.idxs = append(b.idxs, i)
		b.pts = append(b.pts, p)
	}

	r.counters.Add(CtrIngestRequests, 1)
	for s := range r.shards {
		if b := batches[s]; b != nil && len(b.shard.replicas) > 1 {
			r.counters.Add(CtrIngestErrors, 1)
			http.Error(w, fmt.Sprintf("shard %d has %d replicas; routed ingest needs one replica per shard", s, len(b.shard.replicas)), http.StatusNotImplemented)
			return
		}
	}

	var wg sync.WaitGroup
	for _, b := range batches {
		wg.Add(1)
		go func(b *ingestShardBatch) {
			defer wg.Done()
			body, err := json.Marshal(assignRequest{Points: b.pts})
			if err != nil {
				b.status, b.msg = http.StatusInternalServerError, err.Error()
				return
			}
			b.resp, b.status, b.msg = r.ingestShard(req.Context(), b.shard, body)
		}(b)
	}
	wg.Wait()

	for s := range r.shards {
		b := batches[s]
		if b == nil {
			continue
		}
		if b.status != http.StatusOK {
			switch {
			case b.status == http.StatusTooManyRequests:
				r.counters.Add(CtrIngestShed, 1)
				w.Header().Set("Retry-After", "1")
			case b.status >= 500:
				r.counters.Add(CtrIngestErrors, 1)
			}
			http.Error(w, fmt.Sprintf("shard %d: %s", s, b.msg), b.status)
			return
		}
		if len(b.resp.Results) != len(b.idxs) {
			r.counters.Add(CtrIngestErrors, 1)
			http.Error(w, fmt.Sprintf("shard %d acked %d results for %d points", s, len(b.resp.Results), len(b.idxs)), http.StatusBadGateway)
			return
		}
	}
	results := make([]serve.IngestResult, len(body.Points))
	for _, b := range batches {
		for k, i := range b.idxs {
			results[i] = b.resp.Results[k]
		}
	}
	r.counters.Add(CtrIngestPoints, int64(len(body.Points)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(serve.IngestResponse{Results: results}) //nolint:errcheck
}

// ingestShard round-trips one shard's /ingest slice to its one replica, no
// hedge, no failover (see the duplicate-point note above), under the
// request's context: a client that hangs up cancels the shard call.
func (r *Router) ingestShard(ctx context.Context, sc *shardClient, body []byte) (*serve.IngestResponse, int, string) {
	rep := sc.replicas[0]
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+rep.addr+"/ingest", bytes.NewReader(body))
	if err != nil {
		return nil, http.StatusInternalServerError, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		// A call the client's hang-up ended says nothing about the replica.
		if ctx.Err() != nil {
			return nil, http.StatusServiceUnavailable, "request cancelled"
		}
		r.markFailed(sc, rep)
		return nil, http.StatusBadGateway, fmt.Sprintf("replica %s unreachable: %v", rep.addr, err)
	}
	defer resp.Body.Close()
	rep.lastOK.Store(time.Now().UnixNano())
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, resp.StatusCode, string(bytes.TrimRight(msg, "\n"))
	}
	var out serve.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, http.StatusBadGateway, fmt.Sprintf("bad shard reply: %v", err)
	}
	sc.hist.Record(time.Since(start))
	return &out, http.StatusOK, ""
}
