package core

import (
	"fmt"
	"time"

	"etlopt/internal/cost"
	"etlopt/internal/obs"
)

// opNames are the five transition mnemonics, in the paper's order.
var opNames = [...]string{"SWA", "FAC", "DIS", "MER", "SPL"}

// searchMetrics records one search. It is always allocated — with
// Options.Metrics and Options.Journal unset its recorder and handles are
// nil and every record call below degrades to a single nil check, which is
// what keeps the disabled search within its overhead budget.
//
// Transitions, phases and the run's boundaries are events, recorded once
// through the recorder, which derives the search_transition_* counters,
// search_states_deduped_total and search_best_cost on a new best from them
// (obs.Recorder); the journal keeps them, and obs.Spans derives the
// search's spans from it. The handles below are the facts that have no
// event.
//
// All of it is write-only from the search's point of view: nothing in the
// search ever reads an instrument back, so collection cannot perturb
// exploration order and the parallel-determinism contract survives intact
// (pinned by TestMetricsDoNotAffectSearch).
type searchMetrics struct {
	reg *obs.Registry
	rec *obs.Recorder

	generated  *obs.Counter // search_states_generated_total: admission attempts incl. duplicates
	visited    *obs.Counter // search_states_visited_total: distinct admitted states
	shiftSwaps *obs.Counter // search_shift_swaps_total: intermediate SWA states inside Phase II/III shifts

	frontier    *obs.Gauge // search_frontier_size: ES heap / HS Phase III worklist length
	bestCost    *obs.Gauge // search_best_cost: live C(S_MIN)
	initialCost *obs.Gauge // search_initial_cost: C(S0)

	workerBusy []*obs.Gauge // search_worker_busy_seconds{worker}: per-worker pool time
}

// newSearchMetrics builds the recorder and handle set against a registry
// and a journal (nil registry → all-nil handles). Series are registered
// eagerly so a snapshot taken after any run carries the full schema, zeros
// included — consumers like `etlvet metrics` can then assert on series
// presence.
func newSearchMetrics(r *obs.Registry, j *obs.Journal, workers int) *searchMetrics {
	m := &searchMetrics{
		reg:         r,
		rec:         obs.NewRecorder(r, j),
		generated:   r.Counter("search_states_generated_total"),
		visited:     r.Counter("search_states_visited_total"),
		shiftSwaps:  r.Counter("search_shift_swaps_total"),
		frontier:    r.Gauge("search_frontier_size"),
		bestCost:    r.Gauge("search_best_cost"),
		initialCost: r.Gauge("search_initial_cost"),
	}
	r.Counter("expand_cost_memo_hits_total") // published by flushMemoMetrics
	r.Counter("expand_cost_memo_misses_total")
	m.rec.Declare(obs.TransitionEvent("", "prune", 0))
	for _, op := range opNames {
		m.rec.Declare(obs.TransitionEvent(op, "attempt", 0))
		m.rec.Declare(obs.TransitionEvent(op, "accept", 0))
		r.Counter("search_path_steps_total", "op", op) // tallied by recordPath
	}
	if r != nil {
		m.workerBusy = make([]*obs.Gauge, workers)
		for w := range m.workerBusy {
			m.workerBusy[w] = r.Gauge("search_worker_busy_seconds", "worker", fmt.Sprintf("%d", w))
		}
	}
	return m
}

// attempt, accept, prune and best record one transition of kind op: an
// application attempt, a state admitted, a state the visited set rejected
// as a duplicate, a new minimum of cost ("" when the winning transition is
// not singular, e.g. a replayed swap sequence).
func (m *searchMetrics) attempt(op string)            { m.transition(op, "attempt", 0) }
func (m *searchMetrics) accept(op string)             { m.transition(op, "accept", 0) }
func (m *searchMetrics) prune(op string)              { m.transition(op, "prune", 0) }
func (m *searchMetrics) best(op string, cost float64) { m.transition(op, "best", cost) }

func (m *searchMetrics) transition(op, action string, cost float64) {
	if m.rec != nil {
		m.rec.Emit(obs.TransitionEvent(op, action, cost))
	}
}

// attemptBatch records the n attempts of one local-group job, which reach
// the reducer as a count. They are one event carrying n in Rows: thousands
// of events emitted back to back would overrun the journal's buffer and be
// dropped.
func (m *searchMetrics) attemptBatch(op string, n int) {
	if m.rec != nil && n > 0 {
		e := obs.TransitionEvent(op, "attempt", 0)
		e.Rows = int64(n)
		m.rec.Emit(e)
	}
}

// phase records a phase boundary: it emits the start event and returns the
// function that emits the matching end event.
func (m *searchMetrics) phase(name string) func() { return m.rec.Phase(name) }

// runEvent records a run boundary ("start"/"end") for the named algorithm.
func (m *searchMetrics) runEvent(action, alg string) {
	if m.rec != nil {
		m.rec.Emit(obs.RunEvent(action, "search/"+alg))
	}
}

// recordPath tallies the winning derivation path into the per-kind
// path-step counters. Their sum equals len(steps) exactly — the snapshot
// invariant checked against Options.Trace by the acceptance tests.
func (m *searchMetrics) recordPath(steps []TraceStep) {
	for _, st := range steps {
		m.reg.Counter("search_path_steps_total", "op", st.Op).Inc()
	}
}

// busyHook returns the pool's per-worker utilization callback, or nil when
// metrics are disabled (so the pool skips clock reads entirely).
func (m *searchMetrics) busyHook() func(worker int, d time.Duration) {
	if m.reg == nil {
		return nil
	}
	return func(worker int, d time.Duration) {
		if worker < len(m.workerBusy) {
			m.workerBusy[worker].Add(d.Seconds())
		}
	}
}

// flushMemoMetrics publishes the cost memo's cumulative counters into the
// expand_cost_memo_* series. It runs once per search, at result assembly —
// the memo is write-hot, so it counts in local atomics and exports at the
// end rather than bumping registry counters per lookup. The series live
// outside the search_* namespace on purpose: hit/miss splits depend on
// worker timing (concurrent misses on one key each count), so they are
// exempt from the worker-invariance contract that
// TestMetricsSeriesDeterministic enforces over every search_* series —
// while the search *results* stay bit-identical because memoized prices
// are canonical.
func (s *search) flushMemoMetrics() {
	if memo, ok := s.model.(*cost.Memo); ok {
		h, m := memo.Stats()
		s.m.reg.Counter("expand_cost_memo_hits_total").Add(h)
		s.m.reg.Counter("expand_cost_memo_misses_total").Add(m)
	}
}
