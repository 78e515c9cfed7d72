package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Trace records one complete event per executed task in the Chrome
// trace_event format. Create one, pass it in Options, and after Run write
// Trace.JSON() to a file; open it at chrome://tracing (or ui.perfetto.dev)
// to see the per-worker timeline: each worker is one row ("tid"), each task
// one slice, so phase overlap, handoffs between workers, and idle gaps are
// directly visible.
//
// Events are buffered per worker, so recording adds no cross-worker
// contention to the run being measured. One trace may be passed to several
// Runs in turn: their events share the first Run's time origin, and Wall
// spans from its start to the last Run's end.
type Trace struct {
	t0      time.Time
	perWork [][]traceEvent
	wall    time.Duration
}

type traceEvent struct {
	name  string
	id    int32
	start time.Time
	dur   time.Duration
}

// NewTrace returns an empty trace ready to pass in Options.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) start(workers int) {
	if t.perWork == nil {
		t.t0 = time.Now() //fmm:allow nodeterm trace timestamps are diagnostic output only
	}
	for len(t.perWork) < workers {
		t.perWork = append(t.perWork, nil)
	}
}

func (t *Trace) add(w int, name string, id int32, start time.Time, dur time.Duration) {
	t.perWork[w] = append(t.perWork[w], traceEvent{name: name, id: id, start: start, dur: dur})
}

//fmm:allow nodeterm trace timestamps are diagnostic output only
func (t *Trace) finish() { t.wall = time.Since(t.t0) }

// Events returns the total number of recorded task events.
func (t *Trace) Events() int {
	n := 0
	for _, evs := range t.perWork {
		n += len(evs)
	}
	return n
}

// Wall returns the wall-clock duration of the traced run.
func (t *Trace) Wall() time.Duration { return t.wall }

// jsonEvent is the Chrome trace_event wire format for a complete ("X")
// event. Timestamps and durations are microseconds.
type jsonEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int32 `json:"args,omitempty"`
}

// JSON renders the trace as a chrome://tracing-loadable document:
// {"traceEvents": [...], "displayTimeUnit": "ms"}.
func (t *Trace) JSON() []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(&buf)
	first := true
	for w, evs := range t.perWork {
		for _, ev := range evs {
			if !first {
				// Encoder writes a trailing newline per event; a comma
				// before each subsequent event keeps the array valid.
				buf.Truncate(buf.Len() - 1)
				buf.WriteByte(',')
			}
			first = false
			enc.Encode(jsonEvent{
				Name: ev.name,
				Ph:   "X",
				Ts:   float64(ev.start.Sub(t.t0).Nanoseconds()) / 1e3,
				Dur:  float64(ev.dur.Nanoseconds()) / 1e3,
				Pid:  1,
				Tid:  w,
				Args: map[string]int32{"task": ev.id},
			})
		}
	}
	if !first {
		buf.Truncate(buf.Len() - 1)
	}
	fmt.Fprintf(&buf, `],"otherData":{"wall_us":%q}}`, fmt.Sprintf("%.1f", float64(t.wall.Nanoseconds())/1e3))
	return buf.Bytes()
}
