package obs

import (
	"cmp"
	"slices"
)

// SpanRecord is one span of a run's trace tree, as Spans derives it from a
// journal. Times are offsets from the journal's opening, like the events'
// Off, so records carry no absolute wall-clock values.
type SpanRecord struct {
	// ID is unique among the spans of one journal; ParentID is the
	// enclosing span's ID (0 at a root) and TraceID the root span's ID,
	// shared by the whole tree.
	ID       int64 `json:"id"`
	ParentID int64 `json:"parent_id,omitempty"`
	TraceID  int64 `json:"trace_id"`
	// Name and Parent identify the span and its enclosing span ("" at the
	// root); Depth is the nesting level.
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Depth  int    `json:"depth"`
	// StartOffsetSeconds is the span's start relative to the journal's
	// opening; DurationSeconds its length.
	StartOffsetSeconds float64 `json:"start_offset_seconds"`
	DurationSeconds    float64 `json:"duration_seconds"`
}

// Spans derives the span tree of every run recorded in a journal's events.
// Events are taken in Seq order and grouped by Run:
//
//   - a run's start/end pair is its root span, named by the start's Detail;
//   - a phase's start/end pair is a span named by its Op, and each node
//     event a span named node/<Node> over [Off−Sec, Off];
//   - the phase and node spans of a run lie under its root, or are roots of
//     their own when the run has no root span.
//
// A start whose end never comes, or an end with no start, gives no span.
// IDs follow the Seq of each span's first event, so the result, ordered by
// ID, is a function of the journal alone. Spans are exact wherever the
// journal dropped nothing.
func Spans(events []Event) []SpanRecord {
	evs := slices.Clone(events)
	slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	type found struct {
		at   int // index in evs of the span's first event
		run  int64
		root bool
		rec  SpanRecord
	}
	type pair struct {
		run     int64
		t, name string
	}
	var spans []found
	open := map[pair]int{} // an open pair -> index in evs of its start
	for i, e := range evs {
		switch e.T {
		case EventNode:
			spans = append(spans, found{i, e.Run, false, SpanRecord{
				Name: "node/" + e.Node, StartOffsetSeconds: e.Off - e.Sec, DurationSeconds: e.Sec}})
		case EventRun, EventPhase:
			k := pair{e.Run, e.T, e.Op}
			switch s, ok := open[k]; {
			case e.Action == "start":
				open[k] = i
			case e.Action == "end" && ok:
				delete(open, k)
				start := evs[s]
				name := start.Op
				if e.T == EventRun {
					name = start.Detail
				}
				spans = append(spans, found{s, e.Run, e.T == EventRun, SpanRecord{
					Name: name, StartOffsetSeconds: start.Off, DurationSeconds: e.Off - start.Off}})
			}
		}
	}
	slices.SortFunc(spans, func(a, b found) int { return cmp.Compare(a.at, b.at) })
	roots := map[int64]int{} // run -> index in spans of its root
	for i, sp := range spans {
		if _, ok := roots[sp.run]; sp.root && !ok {
			roots[sp.run] = i
		}
	}
	out := make([]SpanRecord, len(spans))
	for i, sp := range spans {
		rec := sp.rec
		rec.ID, rec.TraceID = int64(i+1), int64(i+1)
		if r, ok := roots[sp.run]; ok && r != i {
			rec.ParentID, rec.TraceID, rec.Parent, rec.Depth = int64(r+1), int64(r+1), spans[r].rec.Name, 1
		}
		out[i] = rec
	}
	return out
}
