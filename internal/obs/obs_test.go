package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	t := &Trace{}
	t.Add(JobTrace{
		Job: "wc", ID: 1, Wall: 5 * time.Millisecond,
		Counters: map[string]int64{"shuffle.bytes": 30},
		Spans: []Span{
			{Job: "wc", JobID: 1, Phase: PhaseMap, Task: 0, Wall: 2 * time.Millisecond, Records: 10},
			{Job: "wc", JobID: 1, Phase: PhaseMap, Task: 1, Wall: 10 * time.Millisecond, Records: 12},
			{Job: "wc", JobID: 1, Phase: PhaseShuffle, Task: 0, Wall: time.Millisecond, Records: 4, Bytes: 12},
			{Job: "wc", JobID: 1, Phase: PhaseShuffle, Task: 1, Wall: time.Millisecond, Records: 6, Bytes: 18},
			{Job: "wc", JobID: 1, Phase: PhaseReduce, Task: 0, Wall: 3 * time.Millisecond, Records: 8},
		},
	})
	return t
}

func TestPhaseTotals(t *testing.T) {
	tr := sampleTrace()
	jobs := tr.Jobs()
	pt := Totals(jobs)
	if got := pt[PhaseMap]; got.Tasks != 2 || got.Records != 22 || got.Wall != 12*time.Millisecond {
		t.Fatalf("map totals = %+v", got)
	}
	if got := pt[PhaseShuffle]; got.Bytes != 30 {
		t.Fatalf("shuffle bytes = %d, want 30", got.Bytes)
	}
	if pt[PhaseShuffle].Bytes != jobs[0].Counters["shuffle.bytes"] {
		t.Fatalf("shuffle span bytes %d != counter %d", pt[PhaseShuffle].Bytes, jobs[0].Counters["shuffle.bytes"])
	}
}

func TestDistOf(t *testing.T) {
	spans := sampleTrace().Jobs()[0].Spans
	d := DistOf(spans, PhaseMap)
	if d.Tasks != 2 {
		t.Fatalf("tasks = %d", d.Tasks)
	}
	if d.Max != 10*time.Millisecond {
		t.Fatalf("max = %s", d.Max)
	}
	// Median of [2ms, 10ms] picks index 1 (upper median); 10 > 2*10 is
	// false, so no stragglers here.
	if d.Stragglers != 0 {
		t.Fatalf("stragglers = %d", d.Stragglers)
	}
	// A clear straggler: 3 tasks, one 5x the median.
	d = DistOf([]Span{
		{Phase: PhaseReduce, Wall: time.Millisecond},
		{Phase: PhaseReduce, Wall: time.Millisecond},
		{Phase: PhaseReduce, Wall: 5 * time.Millisecond},
	}, PhaseReduce)
	if d.Stragglers != 1 {
		t.Fatalf("stragglers = %d, want 1", d.Stragglers)
	}
	if got := DistOf(spans, PhaseCombine); got.Tasks != 0 {
		t.Fatalf("empty phase dist = %+v", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // 1 job line + 5 span lines
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["type"] != "job" || first["job"] != "wc" {
		t.Fatalf("first line = %v", first)
	}
	var shuffleBytes int64
	for _, l := range lines[1:] {
		var span struct {
			Type  string `json:"type"`
			Phase string `json:"phase"`
			Bytes int64  `json:"bytes"`
		}
		if err := json.Unmarshal([]byte(l), &span); err != nil {
			t.Fatal(err)
		}
		if span.Type != "span" {
			t.Fatalf("line type = %q", span.Type)
		}
		if span.Phase == string(PhaseShuffle) {
			shuffleBytes += span.Bytes
		}
	}
	if shuffleBytes != 30 {
		t.Fatalf("shuffle bytes from JSONL = %d, want 30", shuffleBytes)
	}
}

func TestWriteTree(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"job wc (#1)", "map", "shuffle", "reduce", "spans=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "combine") {
		t.Fatalf("tree shows empty combine phase:\n%s", out)
	}
}

func TestTraceConcurrentAdd(t *testing.T) {
	tr := &Trace{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr.Add(JobTrace{Job: "j", ID: id})
		}(i)
	}
	wg.Wait()
	if got := len(tr.Jobs()); got != 8 {
		t.Fatalf("jobs = %d, want 8", got)
	}
}

func TestMonitorEmits(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var n int64
	snapshot := func() map[string]int64 {
		mu.Lock()
		n += 100
		v := n
		mu.Unlock()
		return map[string]int64{"map.output.records": v, "shuffle.bytes": v * 10}
	}
	m := StartMonitor("test", 5*time.Millisecond, snapshot, logf)
	time.Sleep(20 * time.Millisecond)
	m.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("monitor logged no lines")
	}
	if !strings.HasPrefix(lines[0], "progress: job test:") {
		t.Fatalf("first line = %q", lines[0])
	}
}

func TestPprofServer(t *testing.T) {
	p, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Addr() == "" {
		t.Fatal("empty addr")
	}
}
