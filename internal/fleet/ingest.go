package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"

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
// clusterd rollover (or its own periodic compactor) bakes it into the
// shard's base artifact.
//
// A batch that reaches a shard with more than one replica is refused with
// 501 before anything is written: replicas keep separate delta segments
// under one ID layout, so spreading a shard's ingests over them would split
// its delta and hand out each global ID twice. That refusal is why ingest
// is never hedged or retried although it takes the same callShard path as
// /fleet/assign: a shard it reaches has one replica, so there is no second
// one to hedge to or fail over to, and callShard makes exactly one attempt.
// That is as it must be — a duplicate ingest is a duplicate point, which is
// worse than a failed request the client can retry knowingly. A
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

// handleIngest validates, routes each point to its owning shard, and
// reassembles the per-point acks in request order.
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	if r.Refuse(w) {
		return
	}
	var body serve.AssignRequest
	if !serve.DecodePoints(w, req, &body, &body.Points, r.cfg.Manifest.Dim) {
		return
	}

	batches := make([]*shardBatch[serve.IngestResult], len(r.shards))
	var kb lsh.KeyBuf
	for i, p := range body.Points {
		r.layouts.Hash(&kb, points.Vector(p))
		_, c := r.layouts.GuaranteeRadius(&kb)
		add(r, batches, r.place.Owner(string(kb.Key(c))), i, p)
	}

	r.counters.Add(CtrIngestRequests, 1)
	for s, b := range batches {
		if b != nil && len(b.shard.replicas) > 1 {
			r.fail(w, req, http.StatusNotImplemented, fmt.Sprintf("shard %d has %d replicas; routed ingest needs one replica per shard", s, len(b.shard.replicas)), CtrIngestShed, CtrIngestErrors)
			return
		}
	}
	if status, msg := scatter(req.Context(), r, "/ingest", batches); status != 0 {
		r.fail(w, req, status, msg, CtrIngestShed, CtrIngestErrors)
		return
	}
	results := make([]serve.IngestResult, len(body.Points))
	for _, b := range batches {
		if b == nil {
			continue
		}
		for k, i := range b.idxs {
			results[i] = b.results[k]
		}
	}
	r.counters.Add(CtrIngestPoints, int64(len(body.Points)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(serve.IngestResponse{Results: results}) //nolint:errcheck
}
