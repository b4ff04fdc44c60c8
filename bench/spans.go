package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one harness-side trace record: an interval around a call the
// harness makes into a layer. Parent is the ID of the span that caused it
// (-1 for a root); spans of one request share Request (-1 outside requests).
// Times are seconds since process start.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how the timed (untraced) run is spelled:
// every call site stays identical and the difference between the two runs is
// the tracing overhead.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	now := time.Since(processStart).Seconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Request: request})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(processStart).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a job wall or a
// summed phase time taken from the program's public stats), laid out from
// start for dur.
func (t *tracer) add(name string, parent int, start float64, dur time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: start + dur.Seconds(), Parent: parent, Request: -1})
	t.mu.Unlock()
	return id
}

// in runs f inside a span and returns how long f took.
func (t *tracer) in(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent, -1)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTime is one row of the per-name rollup: total span time and the part
// not covered by child spans.
type selfTime struct {
	Name        string
	Count       int
	Total, Self float64
}

// selfTimes rolls spans up by name. A span's self time is its duration minus
// the durations of its direct children (clamped at zero: summed task time of
// parallel children can exceed the parent's wall).
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += max(d-child[s.ID], 0)
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
