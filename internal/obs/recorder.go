package obs

import "strconv"

// Recorder is one run's observer, built from the run's registry and
// journal: the engine, the search and the suite cache record each fact as
// one Event through Emit, and every series that describes an event is
// derived from it here, by fold. The fold runs before the event reaches
// the journal's lossy channel, so derived series stay exact when the
// journal drops. Every event also carries the recorder's run id, so the
// journal alone tells which run each event belongs to and Spans can
// rebuild each run's tree, concurrent runs included. A nil *Recorder —
// NewRecorder's answer when neither a registry nor a journal is attached —
// ignores every call.
//
// Facts that have no event (states generated and visited, shift swaps,
// the frontier and cost gauges, worker and partition busy time, memo hits
// and misses, path steps, recordset row counts, completed engine runs) are
// direct instruments of the registry.
type Recorder struct {
	reg *Registry
	j   *Journal
	run int64 // this recorder's id among the journal's runs; 0 without a journal
}

// NewRecorder returns the recorder of one run; reg or j may be nil, and
// with both nil so is the recorder.
func NewRecorder(reg *Registry, j *Journal) *Recorder {
	if reg == nil && j == nil {
		return nil
	}
	r := &Recorder{reg: reg, j: j}
	if j != nil {
		r.run = j.runs.Add(1)
	}
	return r
}

// Emit records one event: it stamps the event with the recorder's run id,
// folds it into the registry, then hands it to the journal. Safe for
// concurrent use.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.Run = r.run
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

// fold derives from e every series that describes it; with declare set it
// only registers the series. This switch is the whole mapping from events
// to the registry: an event type or action it does not name (run and phase
// boundaries, checkpoint) lives in the journal only.
func (r *Recorder) fold(e *Event, declare bool) {
	f := folder{r.reg, declare}
	switch e.T {
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
