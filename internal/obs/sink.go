package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Sink receives structured observability events from the engines: task
// scheduling decisions, progress snapshots, recovery actions. The kind
// string classifies the event ("scheduler", "progress", "worker", ...) so
// sinks can filter or route without parsing the message.
type Sink interface {
	Event(kind, format string, args ...any)
}

// Discard drops every event.
var Discard Sink = discard{}

type discard struct{}

func (discard) Event(string, string, ...any) {}

// writerSink writes one timestamped line per event, serialized by a
// mutex so concurrent engines interleave whole lines.
type writerSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriterSink returns a Sink writing timestamped event lines to w.
func NewWriterSink(w io.Writer) Sink { return &writerSink{w: w} }

func (s *writerSink) Event(kind, format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "%s [%s] %s\n",
		time.Now().Format("15:04:05.000"), kind, fmt.Sprintf(format, args...))
}
