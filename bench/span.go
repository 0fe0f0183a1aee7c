package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own call into that layer (spans inside the
// program are a later change). Spans of one op share Op, which also
// travels on the wire as X-Request-Id.
type span struct {
	ID       int    `json:"id"`                // 1-based; 0 is "no span"
	Parent   int    `json:"parent"`            // ID of the causing span, 0 for an op's root
	Workload string `json:"workload"`          // the workload whose window or probe it belongs to
	Op       int    `json:"op"`                // op index in its window; -1 for probes
	Class    string `json:"class,omitempty"`   // op class of the root
	Name     string `json:"name"`              // "<layer>.<call>"
	Start    int64  `json:"start_ns"`          // since the tracer started
	End      int64  `json:"end_ns"`            // since the tracer started
	Self     int64  `json:"self_ns,omitempty"` // filled by finish
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef addresses a started span; nil when tracing is off.
type spanRef struct {
	t  *tracer
	id int
}

// root starts the top span of an op (or of a probe, with op -1).
func (t *tracer) root(workload string, op int, class, name string) *spanRef {
	if t == nil {
		return nil
	}
	return t.start(span{Workload: workload, Op: op, Class: class, Name: name})
}

func (t *tracer) start(s span) *spanRef {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	s.Start = now
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return &spanRef{t: t, id: s.ID}
}

// child starts a span caused by r.
func (r *spanRef) child(name string) *spanRef {
	if r == nil {
		return nil
	}
	r.t.mu.Lock()
	p := r.t.spans[r.id-1]
	r.t.mu.Unlock()
	return r.t.start(span{Parent: p.ID, Workload: p.Workload, Op: p.Op, Class: p.Class, Name: name})
}

func (r *spanRef) end() {
	if r == nil {
		return
	}
	now := time.Since(r.t.t0).Nanoseconds()
	r.t.mu.Lock()
	r.t.spans[r.id-1].End = now
	r.t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// finish computes self times and returns the spans.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fillSelfTimes(t.spans)
	return t.spans
}

// fillSelfTimes sets each span's Self to its duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (two clients, parallel parts), so covered time is the length of
// the union of the child intervals clipped to the parent.
func fillSelfTimes(spans []span) {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - coveredLength(children[s.ID], s.Start, s.End)
	}
}

// coveredLength is the length of the union of intervals within [lo, hi].
func coveredLength(intervals [][2]int64, lo, hi int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var covered int64
	at := lo
	for _, iv := range intervals {
		a, b := max(iv[0], at), min(iv[1], hi)
		if b > a {
			covered += b - a
			at = b
		}
	}
	return covered
}

// spanFilter selects spans; empty fields match anything.
type spanFilter struct {
	Workload, Name, Class string
}

// spanSeconds returns the durations of the matching spans.
func spanSeconds(spans []span, f spanFilter) []float64 {
	var out []float64
	for _, s := range spans {
		if (f.Workload != "" && s.Workload != f.Workload) || (f.Name != "" && s.Name != f.Name) || (f.Class != "" && s.Class != f.Class) {
			continue
		}
		out = append(out, float64(s.End-s.Start)/1e9)
	}
	return out
}

// writeSpans stores the trace as JSON for later inspection.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
