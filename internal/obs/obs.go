// Package obs is the job observability layer shared by both MapReduce
// engines (the in-process LocalEngine and the distributed rpcmr cluster).
// It models one job execution as a structured trace:
//
//	job → phase (map / combine / sort / shuffle / reduce) → task spans
//
// where every span carries wall time, record count, and byte volume. The
// engines produce spans at the same dataflow points, so a pipeline traced
// on the local engine and on a real cluster yields directly comparable
// trees — the per-stage instrumentation the paper's cost analysis (shuffle
// bytes vs. distance computations) needs to attribute time and bytes.
//
// Two invariants hold by construction and are asserted by the engine
// conformance tests:
//
//   - the sum of Bytes over all shuffle-phase spans of a job equals the
//     job's "shuffle.bytes" counter (the paper's Figure 10(b) metric);
//   - the span count of a job over the five dataflow phases is a pure
//     function of its task geometry (maps × phases + reduces), identical
//     across engines.
//
// The distributed engine additionally emits transport-level "fetch" spans
// (one per remote shuffle fetch, carrying actual wire bytes); these are
// engine-specific observations and excluded from the geometry invariant.
//
// Traces serialize as JSONL (one span per line, machine-readable) and as a
// human-readable tree. The package also provides a periodic counter
// monitor for live throughput on long jobs, logging through the caller's
// Log func, and an opt-in pprof HTTP server for the daemons.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase names one stage of the MapReduce dataflow.
type Phase string

// The five phases, at the same dataflow points Hadoop instruments. Sort
// and shuffle are map-side: sorting happens in the map task's buffers, and
// the shuffle span accounts the data handed to the shuffle AFTER the
// combiner — the place the "shuffle.bytes" counter measures. Reduce-side
// fetch time (rpcmr) is folded into the reduce span.
const (
	PhaseMap     Phase = "map"
	PhaseCombine Phase = "combine"
	PhaseSort    Phase = "sort"
	PhaseShuffle Phase = "shuffle"
	PhaseReduce  Phase = "reduce"
)

// PhaseFetch is the distributed engine's reduce-side shuffle fetch: one
// span per remote map-output fetch, whose Bytes are the bytes that
// crossed the wire (frames plus chunk headers) — distinct from the
// logical PhaseShuffle bytes, which are transport-independent. The local
// engine never emits it.
const PhaseFetch Phase = "fetch"

// PhaseServe is the online serving layer's per-request span: one span per
// query handled by the clusterd assignment engine, whose Wall runs from
// admission to reply, Records is the number of points in the request, and
// Bytes the candidate rows scanned. Only emitted when the server is started
// with tracing on; MapReduce engines never emit it.
const PhaseServe Phase = "serve"

// PhaseOrder lists the phases in dataflow order, for stable rendering.
var PhaseOrder = []Phase{PhaseMap, PhaseCombine, PhaseSort, PhaseShuffle, PhaseFetch, PhaseReduce, PhaseServe}

// Span records one task-phase execution. Worker is the rpcmr worker id
// that ran the task (0 on the local engine).
type Span struct {
	Job     string
	JobID   int
	Phase   Phase
	Task    int
	Worker  int
	Start   time.Time
	Wall    time.Duration
	Records int64
	Bytes   int64
}

// JobTrace groups one executed job's spans with its final counters.
type JobTrace struct {
	Job      string
	ID       int
	Wall     time.Duration
	Spans    []Span
	Counters map[string]int64
}

// PhaseStat aggregates the spans of one phase.
type PhaseStat struct {
	Tasks   int
	Wall    time.Duration
	Records int64
	Bytes   int64
}

// PhaseTotals maps each phase to its aggregate over one or more jobs.
type PhaseTotals map[Phase]PhaseStat

func (pt PhaseTotals) add(s Span) {
	st := pt[s.Phase]
	st.Tasks++
	st.Wall += s.Wall
	st.Records += s.Records
	st.Bytes += s.Bytes
	pt[s.Phase] = st
}

// PhaseTotals aggregates this job's spans by phase.
func (t *JobTrace) PhaseTotals() PhaseTotals {
	pt := PhaseTotals{}
	for _, s := range t.Spans {
		pt.add(s)
	}
	return pt
}

// Totals aggregates spans by phase across a whole pipeline of jobs.
func Totals(traces []JobTrace) PhaseTotals {
	pt := PhaseTotals{}
	for i := range traces {
		for _, s := range traces[i].Spans {
			pt.add(s)
		}
	}
	return pt
}

// TaskDist summarizes the wall-time distribution of one phase's tasks —
// the numbers an operator reads to spot stragglers.
type TaskDist struct {
	Tasks  int
	Median time.Duration
	Max    time.Duration
	// Stragglers counts tasks that took more than twice the median.
	Stragglers int
}

// DistOf computes the task wall-time distribution of one phase.
func DistOf(spans []Span, phase Phase) TaskDist {
	var walls []time.Duration
	for _, s := range spans {
		if s.Phase == phase {
			walls = append(walls, s.Wall)
		}
	}
	if len(walls) == 0 {
		return TaskDist{}
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	d := TaskDist{
		Tasks:  len(walls),
		Median: walls[len(walls)/2],
		Max:    walls[len(walls)-1],
	}
	if d.Median > 0 {
		for _, w := range walls {
			if w > 2*d.Median {
				d.Stragglers++
			}
		}
	}
	return d
}

// Trace accumulates job traces across a pipeline run. It is safe for
// concurrent use: the driver appends from whichever goroutine runs jobs.
type Trace struct {
	mu   sync.Mutex
	jobs []JobTrace
}

// Add appends one job's trace.
func (t *Trace) Add(j JobTrace) {
	t.mu.Lock()
	t.jobs = append(t.jobs, j)
	t.mu.Unlock()
}

// Jobs returns the accumulated job traces in execution order.
func (t *Trace) Jobs() []JobTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]JobTrace(nil), t.jobs...)
}

// jsonLine is the JSONL wire form: one "job" line per job followed by one
// "span" line per task-phase span.
type jsonLine struct {
	Type     string           `json:"type"`
	Job      string           `json:"job"`
	JobID    int              `json:"job_id"`
	Phase    Phase            `json:"phase,omitempty"`
	Task     int              `json:"task,omitempty"`
	Worker   int              `json:"worker,omitempty"`
	Start    string           `json:"start,omitempty"`
	WallUS   int64            `json:"wall_us"`
	Records  int64            `json:"records,omitempty"`
	Bytes    int64            `json:"bytes,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// WriteJSONL serializes the trace as JSON Lines: a "job" record per job
// (wall time and final counters) followed by a "span" record per task
// span. The format is append-friendly and greppable; each line is a
// self-contained JSON object.
func (t *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, j := range t.Jobs() {
		line := jsonLine{
			Type: "job", Job: j.Job, JobID: j.ID,
			WallUS: j.Wall.Microseconds(), Counters: j.Counters,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		for _, s := range j.Spans {
			if err := enc.Encode(jsonLine{
				Type: "span", Job: s.Job, JobID: s.JobID,
				Phase: s.Phase, Task: s.Task, Worker: s.Worker,
				Start: s.Start.UTC().Format(time.RFC3339Nano), WallUS: s.Wall.Microseconds(),
				Records: s.Records, Bytes: s.Bytes,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTree renders the trace as a human-readable job → phase tree with
// per-phase task counts, wall time, records, bytes, and straggler stats.
func (t *Trace) WriteTree(w io.Writer) error {
	var b strings.Builder
	for _, j := range t.Jobs() {
		fmt.Fprintf(&b, "job %s (#%d)  wall=%s  spans=%d\n", j.Job, j.ID, j.Wall.Round(time.Microsecond), len(j.Spans))
		pt := j.PhaseTotals()
		for _, ph := range PhaseOrder {
			st, ok := pt[ph]
			if !ok {
				continue
			}
			dist := DistOf(j.Spans, ph)
			fmt.Fprintf(&b, "  %-8s tasks=%-3d wall=%-12s records=%-10d bytes=%-10d median=%s max=%s",
				ph, st.Tasks, st.Wall.Round(time.Microsecond), st.Records, st.Bytes,
				dist.Median.Round(time.Microsecond), dist.Max.Round(time.Microsecond))
			if dist.Stragglers > 0 {
				fmt.Fprintf(&b, " stragglers=%d", dist.Stragglers)
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
