package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Trace export: spans rendered as Chrome trace-event JSON (the "JSON Array
// Format" with a traceEvents wrapper), loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. Each trace tree — a root span
// and its descendants — gets its own track (tid = TraceID), named after
// the root span; every span becomes one complete ("ph":"X") event with
// microsecond timestamps relative to the journal's opening. The span's ID
// and its parent's name travel in args, so the UI's selection panel shows
// them.

// traceEvent is one record in the trace-event JSON format.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// traceFile is the top-level trace-event JSON object.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents writes spans as Chrome/Perfetto trace-event JSON.
// Output is deterministic for given spans: they sort by start offset, then
// ID.
func WriteTraceEvents(w io.Writer, spans []SpanRecord) error {
	spans = append([]SpanRecord(nil), spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartOffsetSeconds != spans[j].StartOffsetSeconds {
			return spans[i].StartOffsetSeconds < spans[j].StartOffsetSeconds
		}
		return spans[i].ID < spans[j].ID
	})

	out := traceFile{
		TraceEvents:     make([]traceEvent, 0, len(spans)+8),
		DisplayTimeUnit: "ms",
	}
	out.TraceEvents = append(out.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]string{"name": "etlopt"},
	})

	// One named track per trace tree, labeled by its root span.
	rootName := map[int64]string{}
	for _, sp := range spans {
		if sp.ParentID == 0 {
			rootName[sp.TraceID] = sp.Name
		}
	}
	tids := make([]int64, 0, len(rootName))
	for tid := range rootName {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]string{"name": rootName[tid]},
		})
	}

	for _, sp := range spans {
		args := map[string]string{"span_id": strconv.FormatInt(sp.ID, 10)}
		if sp.Parent != "" {
			args["parent"] = sp.Parent
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: sp.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   sp.StartOffsetSeconds * 1e6,
			Dur:  sp.DurationSeconds * 1e6,
			Pid:  1,
			Tid:  sp.TraceID,
			Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
