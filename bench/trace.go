package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the index of the span that caused this one (-1 for a root).
// Start and End are offsets from the recorder's origin.
type span struct {
	Name   string
	Layer  string
	Op     int
	Parent int
	Tid    int
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory; nothing is written until the run ends, so
// recording costs two clock reads and one append per span.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name, layer string, op, parent, tid int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Op: op, Parent: parent, Tid: tid, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = time.Since(r.t0)
	return s.End - s.Start
}

// add records a span whose interval was measured elsewhere (a server-side
// service time reported in a response), ending at the parent's end.
func (r *recorder) add(name, layer string, op, parent, tid int, dur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.spans[parent].End
	r.spans = append(r.spans, span{Name: name, Layer: layer, Op: op, Parent: parent, Tid: tid, Start: end - dur, End: end})
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover (overlapping children are merged first).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// chromeEvent is a trace_event "complete" event (the format sched.Trace
// writes): timestamps and durations in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// write stores the spans as a chrome://tracing document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, len(spans))}
	for i, s := range spans {
		doc.TraceEvents[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: s.Tid,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.Parent, "op": s.Op,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
