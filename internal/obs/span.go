package obs

import (
	"sync"
)

// spanLogCap is the default bound on the completed-span window per
// registry. Old spans are overwritten (and counted as dropped in
// obs_spans_dropped_total); live introspection wants the recent past, not
// history. Registry.SetSpanCap raises or lowers the bound — the CLIs'
// -trace-out raises it before a run so the whole run's tree survives to
// the export.
const spanLogCap = 256

// SpanRecord is a completed span as kept in the registry's window and
// reported by snapshots. Spans are derived from events by a Recorder: a
// run's or a phase's start/end pair, or a node event (recorder.go). Times
// are relative to the registry's creation so records are
// position-independent (no absolute wall-clock leaks into exhibits).
type SpanRecord struct {
	// ID is registry-unique; ParentID is the enclosing span's ID (0 at a
	// root) and TraceID the root span's ID, shared by the whole tree.
	ID       int64 `json:"id"`
	ParentID int64 `json:"parent_id,omitempty"`
	TraceID  int64 `json:"trace_id"`
	// Name and Parent identify the span and its enclosing span ("" at the
	// root); Depth is the nesting level.
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Depth  int    `json:"depth"`
	// StartOffsetSeconds is the span's start relative to registry
	// creation; DurationSeconds its length.
	StartOffsetSeconds float64 `json:"start_offset_seconds"`
	DurationSeconds    float64 `json:"duration_seconds"`
}

// spanLog is a bounded ring of completed spans, grown on demand up to its
// capacity. Overwrites of not-yet-snapshotted records are counted in
// dropped, so span loss is visible instead of silent.
type spanLog struct {
	mu      sync.Mutex
	ring    []SpanRecord
	cap     int
	n       int // total appended since the last resize
	dropped *Counter
}

func (l *spanLog) add(rec SpanRecord) {
	l.mu.Lock()
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, rec)
	} else {
		l.dropped.Inc()
		l.ring[l.n%l.cap] = rec
	}
	l.n++
	l.mu.Unlock()
}

// recent returns up to max completed spans, oldest first.
func (l *spanLog) recent(max int) []SpanRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recentLocked(max)
}

// resize bounds the ring at capacity c, keeping the most recent
// min(kept, c) records. Records shed by a shrink count as dropped.
func (l *spanLog) resize(c int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if kept := len(l.ring); kept > c {
		l.dropped.Add(int64(kept - c))
	}
	l.ring = l.recentLocked(c)
	l.cap = c
	l.n = len(l.ring)
}

// recentLocked is recent(max) for callers already holding the mutex.
func (l *spanLog) recentLocked(max int) []SpanRecord {
	n := len(l.ring)
	if max > 0 && n > max {
		n = max
	}
	out := make([]SpanRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, l.ring[(l.n-n+i)%len(l.ring)])
	}
	return out
}

// SetSpanCap bounds the completed-span window at c records, keeping the
// most recent records it already holds. c <= 0 restores the default.
// Shrinking counts the shed records in obs_spans_dropped_total. The window
// grows as spans complete, so a large bound costs nothing until it is
// used. No-op on a nil registry.
func (r *Registry) SetSpanCap(c int) {
	if r == nil {
		return
	}
	if c <= 0 {
		c = spanLogCap
	}
	r.spans.resize(c)
}

// SpansDropped reports how many completed spans have been lost to window
// overwrites or shrinks; the same number is exposed as the
// obs_spans_dropped_total counter.
func (r *Registry) SpansDropped() int64 {
	if r == nil {
		return 0
	}
	return r.spans.dropped.Value()
}

// addSpan completes a span: its duration is observed into the
// obs_span_seconds{span=name} histogram and the record joins the window.
func (r *Registry) addSpan(rec SpanRecord) {
	r.Histogram("obs_span_seconds", nil, "span", rec.Name).Observe(rec.DurationSeconds)
	r.spans.add(rec)
}

// RecentSpans returns up to max recently completed spans, oldest first
// (max ≤ 0 means the full retained window).
func (r *Registry) RecentSpans(max int) []SpanRecord {
	if r == nil {
		return nil
	}
	return r.spans.recent(max)
}
