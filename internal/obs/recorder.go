package obs

import (
	"strconv"
	"sync"
	"time"
)

// Recorder is one run's observer, built from the run's registry and
// journal: the engine, the search and the suite cache record each fact as
// one Event through Emit, and every series and span that describes an
// event is derived from it here, by fold. The fold runs before the event
// reaches the journal's lossy channel, so derived series stay exact when
// the journal drops. A nil *Recorder — NewRecorder's answer when neither a
// registry nor a journal is attached — ignores every call.
//
// Facts that have no event (states generated and visited, shift swaps,
// the frontier and cost gauges, worker and partition busy time, memo hits
// and misses, path steps, recordset row counts, completed engine runs) are
// direct instruments of the registry.
type Recorder struct {
	reg *Registry
	j   *Journal

	mu     sync.Mutex // guards the open spans
	run    openSpan   // the run's span, opened by its start event
	phases map[string]openSpan
}

// openSpan is a span whose start event has been folded and whose end has not.
type openSpan struct {
	id    int64
	name  string
	start time.Time
}

// NewRecorder returns the recorder of one run; reg or j may be nil, and
// with both nil so is the recorder.
func NewRecorder(reg *Registry, j *Journal) *Recorder {
	if reg == nil && j == nil {
		return nil
	}
	return &Recorder{reg: reg, j: j}
}

// Emit records one event: it folds the event into the registry, then hands
// it to the journal. Safe for concurrent use.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.fold(&e, false)
	}
	r.j.Emit(e)
}

// Declare registers the series events like e fold into, their values
// untouched, so a snapshot carries them — zeros included — before or
// without any such event.
func (r *Recorder) Declare(e Event) {
	if r != nil && r.reg != nil {
		r.fold(&e, true)
	}
}

// Phase emits the start event of the named phase and returns the function
// that emits its end.
func (r *Recorder) Phase(name string) (end func()) {
	if r == nil {
		return func() {}
	}
	r.Emit(PhaseEvent(name, "start"))
	return func() { r.Emit(PhaseEvent(name, "end")) }
}

// fold derives from e every series and span that describes it; with
// declare set it only registers the series. This switch is the whole
// mapping from events to the registry: an event type or action it does not
// name (checkpoint, resume, a plain cache's lookups) lives in the journal
// only.
func (r *Recorder) fold(e *Event, declare bool) {
	f := folder{r.reg, declare}
	switch e.T {
	case EventRun, EventPhase:
		if !declare {
			r.span(e)
		}
	case EventTransition:
		switch e.Action {
		case "attempt": // a group job's attempts arrive as one event carrying their count
			f.add(max(e.Rows, 1), "search_transition_attempts_total", "op", e.Op)
		case "accept":
			f.add(1, "search_transition_accepts_total", "op", e.Op)
		case "prune":
			f.add(1, "search_states_deduped_total")
		case "best":
			f.set(e.Cost, "search_best_cost")
		}
	case EventNode:
		f.add(e.Rows, "engine_rows_out_total", "node", e.Node)
		f.observe(e.Sec, "engine_node_seconds", "node", e.Node)
		if !declare {
			r.span(e)
		}
	case EventBatch:
		f.add(e.Rows, "engine_partition_rows_out_total", "node", e.Node, "partition", strconv.Itoa(e.Part))
	case EventExchange:
		f.add(e.Rows, "engine_exchange_rows_total", "node", e.Node)
	case EventFault:
		f.add(1, "engine_faults_injected_total", "site", e.Action)
	case EventRetry:
		f.add(1, "engine_retries_total", "node", e.Node)
	case EventDrift:
		f.set(e.Observed, "engine_selectivity_observed", "node", e.Node)
		f.set(e.Modeled, "engine_selectivity_modeled", "node", e.Node)
	case EventCache:
		if e.Op != SharedCacheName {
			break
		}
		switch e.Action {
		case "lookup":
			f.add(1, "shared_cache_lookups_total")
		case "hit":
			f.add(1, "shared_cache_hits_total")
			f.add(e.Rows, "shared_cache_saved_bytes_total")
		case "miss":
			f.add(1, "shared_cache_misses_total")
		case "admit":
			f.add(e.Rows, "shared_cache_admitted_bytes_total")
		case "evict":
			f.add(e.Rows, "shared_cache_evicted_bytes_total")
		case "spill":
			f.add(e.Rows, "shared_cache_spilled_bytes_total")
		}
	}
}

// folder applies one fold to a registry, or only registers its series.
type folder struct {
	reg     *Registry
	declare bool
}

func (f folder) add(n int64, family string, labels ...string) {
	if c := f.reg.Counter(family, labels...); !f.declare {
		c.Add(n)
	}
}

func (f folder) set(v float64, family string, labels ...string) {
	if g := f.reg.Gauge(family, labels...); !f.declare {
		g.Set(v)
	}
}

func (f folder) observe(v float64, family string, labels ...string) {
	if h := f.reg.Histogram(family, nil, labels...); !f.declare {
		h.Observe(v)
	}
}

// span derives spans from e. A run's start event opens the run's span, the
// root of its trace, and its end closes it; a phase's events do the same
// for a span under the run; a node event is a span of its own under the
// run, ending at the event and Sec long. Parenting under the recorder's own
// run keeps the spans of concurrent runs apart.
func (r *Recorder) span(e *Event) {
	at := now()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case e.T == EventNode:
		start := at.Add(-time.Duration(e.Sec * float64(time.Second)))
		r.closeSpan(openSpan{r.reg.spanSeq.Add(1), "node/" + e.Node, start}, e.Sec)
	case e.T == EventRun && e.Action == "start":
		r.run = openSpan{r.reg.spanSeq.Add(1), e.Detail, at}
	case e.T == EventRun && e.Action == "end" && r.run.id != 0:
		run := r.run
		r.run = openSpan{} // closed as the root it is
		r.closeSpan(run, at.Sub(run.start).Seconds())
	case e.T == EventPhase && e.Action == "start":
		if r.phases == nil {
			r.phases = make(map[string]openSpan)
		}
		r.phases[e.Op] = openSpan{r.reg.spanSeq.Add(1), e.Op, at}
	case e.T == EventPhase && e.Action == "end":
		if sp, ok := r.phases[e.Op]; ok {
			delete(r.phases, e.Op)
			r.closeSpan(sp, at.Sub(sp.start).Seconds())
		}
	}
}

// closeSpan completes a span of sec seconds under the open run, or as a
// root of its own when no run is open.
func (r *Recorder) closeSpan(sp openSpan, sec float64) {
	rec := SpanRecord{
		ID: sp.id, TraceID: sp.id, Name: sp.name,
		StartOffsetSeconds: sp.start.Sub(r.reg.created).Seconds(),
		DurationSeconds:    sec,
	}
	if r.run.id != 0 {
		rec.ParentID, rec.TraceID, rec.Parent, rec.Depth = r.run.id, r.run.id, r.run.name, 1
	}
	r.reg.addSpan(rec)
}
