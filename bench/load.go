package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// loadGen is a closed-loop HTTP load generator: each of its clients keeps
// exactly one request in flight, the way clusterd's callers wait for their
// label. Work is a fixed request count handed out from one shared counter,
// never a duration, so every run of a workload issues the same requests.
type loadGen struct {
	base    string // http://host:port
	clients int
	client  *http.Client
	// queries is the replayed stream: request i carries points
	// queries[i*perReq .. i*perReq+perReq) (modulo the stream length).
	queries [][]float64
	perReq  int
	// writeEvery makes every writeEvery-th request (by global index) a
	// POST /ingest of its points instead of a read; 0 means reads only.
	writeEvery int
	tr         *tracer
}

func newLoadGen(addr string, clients int, queries [][]float64, perReq, writeEvery int, tr *tracer) *loadGen {
	return &loadGen{
		base:    "http://" + addr,
		clients: clients,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: clients},
			Timeout:   30 * time.Second,
		},
		queries:    queries,
		perReq:     perReq,
		writeEvery: writeEvery,
		tr:         tr,
	}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

func (g *loadGen) isWrite(i int) bool { return g.writeEvery > 0 && i%g.writeEvery == g.writeEvery-1 }

func (g *loadGen) points(i int) [][]float64 {
	pts := make([][]float64, g.perReq)
	for j := range pts {
		pts[j] = g.queries[(i*g.perReq+j)%len(g.queries)]
	}
	return pts
}

// answer is one kept read reply, for the oracle.
type answer struct {
	req int
	got serve.Assignment // first point's assignment
}

// ack is one acknowledged ingested point.
type ack struct {
	id int32
	q  []float64
}

// segment is what one fixed-count stretch of load produced.
type segment struct {
	wall   time.Duration
	cpu    time.Duration   // process CPU time spent during the segment (set by the caller)
	reads  []time.Duration // latencies of successful reads
	writes []time.Duration // latencies of acknowledged writes
	failed int             // transport errors, non-200 (incl. 429), malformed replies
	bytes  int64           // request plus reply body bytes of the successful requests
	kept   []answer
	acks   []ack
	// duringHook holds the read latencies observed while the segment's
	// hook (a compaction) was running.
	duringHook []time.Duration
}

func (s *segment) readQPS() float64 { return float64(len(s.reads)) / s.wall.Seconds() }

// run issues requests [first, first+count) and returns when all have
// completed. keep selects the read requests whose answers are kept. hook,
// when non-nil, is started on its own goroutine by the client that draws
// request hookAt, and run waits for it before the segment ends.
func (g *loadGen) run(first, count int, keep func(i int) bool, hookAt int, hook func(), parent int) *segment {
	type clientOut struct {
		reads, writes, during []time.Duration
		failed                int
		bytes                 int64
		kept                  []answer
		acks                  []ack
	}
	outs := make([]clientOut, g.clients)
	var next atomic.Int64
	var hookRunning atomic.Bool
	var hookWG sync.WaitGroup
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= count {
					return
				}
				i := first + n
				if hook != nil && i == hookAt {
					hookWG.Add(1)
					hookRunning.Store(true)
					go func() {
						defer hookWG.Done()
						hook()
						hookRunning.Store(false)
					}()
				}
				pts := g.points(i)
				write := g.isWrite(i)
				inHook := hookRunning.Load()
				r, err := g.do(i, pts, write, parent)
				out.bytes += int64(r.bytes)
				switch {
				case err != nil:
					out.failed++
				case write:
					out.writes = append(out.writes, r.lat)
					out.acks = append(out.acks, r.acks...)
				default:
					out.reads = append(out.reads, r.lat)
					if inHook {
						out.during = append(out.during, r.lat)
					}
					if keep != nil && keep(i) {
						out.kept = append(out.kept, answer{req: i, got: r.got})
					}
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	hookWG.Wait()
	seg := &segment{wall: time.Since(start)}
	for i := range outs {
		seg.reads = append(seg.reads, outs[i].reads...)
		seg.writes = append(seg.writes, outs[i].writes...)
		seg.duringHook = append(seg.duringHook, outs[i].during...)
		seg.failed += outs[i].failed
		seg.bytes += outs[i].bytes
		seg.kept = append(seg.kept, outs[i].kept...)
		seg.acks = append(seg.acks, outs[i].acks...)
	}
	return seg
}

// reply is what one request returned: the first point's assignment for a
// read, one ack per point for a write, and the body bytes both ways.
type reply struct {
	lat   time.Duration
	got   serve.Assignment
	acks  []ack
	bytes int
}

// do sends request i and decodes its reply. Any transport error, non-200
// status or malformed reply is an error: a shed (429) request counts as
// failed like any other.
func (g *loadGen) do(i int, pts [][]float64, write bool, parent int) (reply, error) {
	path, name := "/assign", "http.assign"
	if write {
		path, name = "/ingest", "http.ingest"
	}
	body, err := json.Marshal(map[string][][]float64{"points": pts})
	if err != nil {
		return reply{}, err
	}
	id := g.tr.begin(name, parent, i)
	defer g.tr.end(id)
	start := time.Now()
	resp, err := g.client.Post(g.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{lat: time.Since(start), bytes: len(body) + len(data)}
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if write {
		var ir serve.IngestResponse
		if err := json.Unmarshal(data, &ir); err != nil || len(ir.Results) != len(pts) {
			return reply{}, fmt.Errorf("%s: malformed reply (%d results for %d points): %v", path, len(ir.Results), len(pts), err)
		}
		r.acks = make([]ack, len(pts))
		for j := range pts {
			r.acks[j] = ack{id: ir.Results[j].ID, q: pts[j]}
		}
		return r, nil
	}
	var ar struct {
		Results []serve.Assignment `json:"results"`
	}
	if err := json.Unmarshal(data, &ar); err != nil || len(ar.Results) != len(pts) {
		return reply{}, fmt.Errorf("%s: malformed reply (%d results for %d points): %v", path, len(ar.Results), len(pts), err)
	}
	r.got = ar.Results[0]
	return r, nil
}

// sameAnswer compares the fields /assign serialises (Dist2 never crosses
// the wire). Go's JSON round-trips float64 exactly, so equality is bit for
// bit.
func sameAnswer(a, b serve.Assignment) bool {
	return a.Cluster == b.Cluster && a.Halo == b.Halo && a.Nearest == b.Nearest &&
		a.Dist == b.Dist && a.PeakDist == b.PeakDist && a.Exact == b.Exact
}
