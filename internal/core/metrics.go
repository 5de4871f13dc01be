package core

import (
	"fmt"
	"time"

	"etlopt/internal/cost"
	"etlopt/internal/obs"
)

// opNames are the five transition mnemonics, in the paper's order. They
// index the per-kind counter arrays of searchMetrics.
var opNames = [...]string{"SWA", "FAC", "DIS", "MER", "SPL"}

// opIndex maps a transition mnemonic to its opNames slot; -1 when unknown.
func opIndex(op string) int {
	for i, n := range opNames {
		if n == op {
			return i
		}
	}
	return -1
}

// searchMetrics holds the instrument handles of one search. It is always
// allocated — with a nil Options.Metrics registry every handle is nil and
// every record call below degrades to a single nil check, which is what
// keeps the disabled search within the ISSUE's <2% overhead budget.
//
// All handles are write-only from the search's point of view: nothing in
// the search ever reads an instrument back, so collection cannot perturb
// exploration order and the parallel-determinism contract survives intact
// (pinned by TestMetricsDoNotAffectSearch).
type searchMetrics struct {
	reg *obs.Registry
	// j, when non-nil, is the flight recorder receiving per-event records
	// (transition attempts/accepts/prunes, phase boundaries). Like the
	// instrument handles, it is write-only and nil-safe: with
	// Options.Journal unset every emission degrades to one nil check and
	// event structs are never even constructed.
	j *obs.Journal

	generated  *obs.Counter // search_states_generated_total: admission attempts incl. duplicates
	visited    *obs.Counter // search_states_visited_total: distinct admitted states
	deduped    *obs.Counter // search_states_deduped_total: duplicate hits rejected by the visited set
	shiftSwaps *obs.Counter // search_shift_swaps_total: intermediate SWA states inside Phase II/III shifts

	attempts  [len(opNames)]*obs.Counter // search_transition_attempts_total{op}
	accepts   [len(opNames)]*obs.Counter // search_transition_accepts_total{op}
	pathSteps [len(opNames)]*obs.Counter // search_path_steps_total{op}: steps on the winning derivation path

	frontier    *obs.Gauge // search_frontier_size: ES heap / HS Phase III worklist length
	bestCost    *obs.Gauge // search_best_cost: live C(S_MIN)
	initialCost *obs.Gauge // search_initial_cost: C(S0)

	workerBusy []*obs.Gauge // search_worker_busy_seconds{worker}: per-worker pool time

	// Cost-memo effectiveness. These live outside the search_* namespace on
	// purpose: hit/miss splits depend on worker timing (concurrent misses
	// on one key each count), so they are exempt from the worker-invariance
	// contract that TestMetricsSeriesDeterministic enforces over every
	// search_* series — while the search *results* stay bit-identical
	// because memoized prices are canonical.
	memoHits *obs.Counter // expand_cost_memo_hits_total: per-activity cost memo hits
	memoMiss *obs.Counter // expand_cost_memo_misses_total
}

// newSearchMetrics builds the handle set against a registry (nil registry
// → all-nil handles). Series are registered eagerly so a snapshot taken
// after any run carries the full schema, zeros included — consumers like
// `etlvet metrics` can then assert on series presence.
func newSearchMetrics(r *obs.Registry, j *obs.Journal, workers int) *searchMetrics {
	m := &searchMetrics{
		reg:         r,
		j:           j,
		generated:   r.Counter("search_states_generated_total"),
		visited:     r.Counter("search_states_visited_total"),
		deduped:     r.Counter("search_states_deduped_total"),
		shiftSwaps:  r.Counter("search_shift_swaps_total"),
		frontier:    r.Gauge("search_frontier_size"),
		bestCost:    r.Gauge("search_best_cost"),
		initialCost: r.Gauge("search_initial_cost"),
		memoHits:    r.Counter("expand_cost_memo_hits_total"),
		memoMiss:    r.Counter("expand_cost_memo_misses_total"),
	}
	for i, op := range opNames {
		m.attempts[i] = r.Counter("search_transition_attempts_total", "op", op)
		m.accepts[i] = r.Counter("search_transition_accepts_total", "op", op)
		m.pathSteps[i] = r.Counter("search_path_steps_total", "op", op)
	}
	if r != nil {
		m.workerBusy = make([]*obs.Gauge, workers)
		for w := range m.workerBusy {
			m.workerBusy[w] = r.Gauge("search_worker_busy_seconds", "worker", fmt.Sprintf("%d", w))
		}
	}
	return m
}

// attempt records a transition application attempt of the given kind.
func (m *searchMetrics) attempt(op string) {
	if i := opIndex(op); i >= 0 {
		m.attempts[i].Inc()
	}
	if m.j != nil {
		m.j.Emit(obs.TransitionEvent(op, "attempt", 0))
	}
}

// attemptBatch records the n attempts of one local-group job, which reach
// the reducer as a count. They are journaled as one event carrying n in
// Rows: thousands of events emitted back to back would overrun the
// journal's buffer and be dropped.
func (m *searchMetrics) attemptBatch(op string, n int) {
	if n == 0 {
		return
	}
	if i := opIndex(op); i >= 0 {
		m.attempts[i].Add(int64(n))
	}
	if m.j != nil {
		e := obs.TransitionEvent(op, "attempt", 0)
		e.Rows = int64(n)
		m.j.Emit(e)
	}
}

// accept records an admitted (non-duplicate) state reached by the kind.
func (m *searchMetrics) accept(op string) {
	if i := opIndex(op); i >= 0 {
		m.accepts[i].Inc()
	}
	if m.j != nil {
		m.j.Emit(obs.TransitionEvent(op, "accept", 0))
	}
}

// prune records a generated state of the given kind rejected by the
// visited set. The deduped counter is already bumped inside admit — this
// only journals the event, with the transition kind admit cannot know.
func (m *searchMetrics) prune(op string) {
	if m.j != nil {
		m.j.Emit(obs.TransitionEvent(op, "prune", 0))
	}
}

// best records a new minimum-cost state reached by the given kind ("" when
// the winning transition is not singular, e.g. a replayed swap sequence).
func (m *searchMetrics) best(op string, cost float64) {
	if m.j != nil {
		m.j.Emit(obs.TransitionEvent(op, "best", cost))
	}
}

// noopEnd is the shared zero-cost closure phase returns when journaling is
// off, so disabled phases allocate nothing.
var noopEnd = func() {}

// phase journals a phase boundary: it emits the start event and returns
// the closure that emits the matching end event.
func (m *searchMetrics) phase(name string) func() {
	if m.j == nil {
		return noopEnd
	}
	m.j.Emit(obs.PhaseEvent(name, "start"))
	return func() { m.j.Emit(obs.PhaseEvent(name, "end")) }
}

// runEvent journals a run boundary ("start"/"end") for the named algorithm.
func (m *searchMetrics) runEvent(action, alg string) {
	if m.j != nil {
		m.j.Emit(obs.RunEvent(action, "search/"+alg))
	}
}

// recordPath tallies the winning derivation path into the per-kind
// path-step counters. Their sum equals len(steps) exactly — the snapshot
// invariant checked against Options.Trace by the acceptance tests.
func (m *searchMetrics) recordPath(steps []TraceStep) {
	for _, st := range steps {
		if i := opIndex(st.Op); i >= 0 {
			m.pathSteps[i].Inc()
		}
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
// end rather than bumping registry counters per lookup.
func (s *search) flushMemoMetrics() {
	if memo, ok := s.model.(*cost.Memo); ok {
		h, m := memo.Stats()
		s.m.memoHits.Add(h)
		s.m.memoMiss.Add(m)
	}
}

// startProgress begins the periodic progress line for long searches:
// states generated per second, frontier size, current best cost and an
// ETA against the state budget. It reads only atomic instruments — never
// the search's own unsynchronized counters — so it can run concurrently
// with the algorithm goroutine. The returned stop emits one final line.
func (s *search) startProgress(alg string) {
	if s.opts.Progress == nil {
		return
	}
	interval := s.opts.ProgressInterval
	if interval <= 0 {
		interval = time.Second
	}
	begin := time.Now()
	m := s.m
	budget := s.opts.MaxStates
	s.stopProgress = obs.StartProgress(s.opts.Progress, interval, func() string {
		elapsed := time.Since(begin).Seconds()
		gen := m.generated.Value()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(gen) / elapsed
		}
		eta := "-"
		if rate > 0 && gen < int64(budget) {
			eta = (time.Duration(float64(int64(budget)-gen) / rate * float64(time.Second))).Round(time.Second).String()
		}
		return fmt.Sprintf("[%s] %d states (%.0f/s) frontier=%.0f best=%.1f eta≤%s",
			alg, gen, rate, m.frontier.Value(), m.bestCost.Value(), eta)
	})
}

// close releases the search's run-scoped resources: the progress emitter
// (flushing a final line).
func (s *search) close() {
	if s.stopProgress != nil {
		s.stopProgress()
		s.stopProgress = nil
	}
}
