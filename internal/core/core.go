// Package core implements the paper's primary contribution: the
// optimization of ETL workflows as state-space search (§2.2, §4). Each
// state is a workflow graph; transitions (SWA, FAC, DIS, MER, SPL)
// generate equivalent states; a cost model discriminates them; and three
// algorithms explore the space:
//
//   - Exhaustive Search (ES) generates every reachable state and returns
//     the global optimum, subject to a visited-state / time budget (the
//     paper capped ES at 40 hours; most medium and large workflows never
//     terminated);
//   - Heuristic Search (HS, Fig. 7) prunes the space with four heuristics:
//     factorize only homologous activities, distribute only distributable
//     ones, merge constrained activities up front, and divide the state
//     into local groups optimized independently;
//   - HS-Greedy replaces HS's exhaustive local-group exploration with
//     hill-climbing, trading solution quality for speed.
package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"etlopt/internal/cost"
	"etlopt/internal/obs"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// Options configures an optimization run.
type Options struct {
	// Model prices states; defaults to cost.RowModel.
	Model cost.Model
	// MaxStates bounds the number of generated (visited) states; 0 means
	// the package default (200 000). ES reports Terminated=false when the
	// budget is exhausted before the space closes.
	MaxStates int
	// Workers sets the number of goroutines used to sign and cost successor
	// states (ES) and to optimize independent local groups (HS). 0 means
	// runtime.GOMAXPROCS(0); 1 runs the search fully sequentially. The
	// result — Best signature, BestCost, Visited, Generated — is identical
	// for every value: parallel workers only compute pure state
	// evaluations, while admission, budgeting and best-state reduction
	// stay on one goroutine in a fixed order (lowest cost first, ties
	// broken by signature).
	Workers int
	// MergeConstraints lists activity pairs to merge during HS
	// pre-processing (Heuristic 3), by node ID in the initial state. The
	// merges are split again after the search.
	MergeConstraints [][2]workflow.NodeID
	// IncrementalCost enables the semi-incremental cost evaluation of
	// §4.1; full recomputation is used when false. Results are identical;
	// only speed differs.
	IncrementalCost bool
	// DisableDedup turns off signature-based duplicate-state detection
	// (ablation A1). ES without dedup re-explores states and is
	// dramatically slower.
	DisableDedup bool
	// DisablePhaseI skips HS Phase I (ablation A3; the paper argues the
	// phase pays for itself despite Phase IV's repetition).
	DisablePhaseI bool
	// Journal, when non-nil, receives the search's flight-recorder event
	// stream (see obs.Journal): run and phase boundaries, every transition
	// attempt/accept/prune and new-best transitions with their cost. The
	// registry the journal was opened with, if any, receives the search's
	// observability series: states generated/visited/deduped,
	// per-transition-kind attempt and accept counts, frontier size,
	// per-worker pool utilization and the best cost as a live gauge (see
	// internal/obs and DESIGN.md §6). Emission is non-blocking and
	// write-only — a saturated or failing journal drops events (counted)
	// rather than perturbing the search, and no instrument is read back —
	// so results are bit-identical with the journal on or off (pinned by
	// TestJournalDoesNotAffectSearch).
	Journal *obs.Journal
	// PprofLabels, when true, tags the search's worker goroutines with
	// runtime/pprof labels (etl=search, etl_worker=<index>) so CPU profiles
	// attribute samples per worker. Off by default; labels cost a small
	// per-pool-run overhead and are only useful under active profiling.
	PprofLabels bool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Model == nil {
		o.Model = cost.RowModel{}
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 200_000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result reports one optimization run.
type Result struct {
	// Best is the cheapest state found, merged packages split.
	Best *workflow.Graph
	// BestCost and InitialCost are C(S_MIN) and C(S0).
	BestCost    float64
	InitialCost float64
	// Visited counts the distinct states generated — the paper's
	// visited-states metric (§4.1 dedupes by signature so no state is
	// generated, or costed, more than once).
	Visited int
	// Generated counts generation attempts including duplicate hits; the
	// state budget applies to this number, since duplicates still cost
	// work to produce and recognize.
	Generated int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// Terminated reports whether the search closed the space (always true
	// for HS and HS-Greedy; false when ES ran out of budget, matching the
	// paper's "the algorithm did not terminate" annotations).
	Terminated bool
	// Algorithm names the search that produced this result.
	Algorithm string
	// Steps is the derivation path from S0 to Best, shift swaps and the
	// post-processing SPL transitions included, so replaying Steps from S0
	// reproduces Best exactly; internal/analysis audits it offline without
	// executing data. Nil when Best is S0.
	Steps []TraceStep
}

// Improvement returns the percentage improvement over the initial state.
func (r *Result) Improvement() float64 {
	return cost.Improvement(r.InitialCost, r.BestCost)
}

// state couples a workflow with its evaluated costing.
type state struct {
	g       *workflow.Graph
	costing *cost.Costing
	sig     string
	// path is the derivation path from S0, rendered as Result.Steps only
	// for the winner. It is parent-linked, so a successor extends its
	// parent's path in O(1) and shares it.
	path *chain[pathStep]
}

// search carries the shared bookkeeping of all three algorithms.
//
// Concurrency model: worker goroutines only ever read the search (opts,
// model, parent costings) and consult the striped visited set; every
// mutation — admit, countShift, best-state updates — happens on the
// goroutine running the algorithm, in an order that does not depend on
// the worker count. That single-writer discipline is what makes the
// parallel search bit-reproducible.
type search struct {
	opts    Options
	ctx     context.Context // the caller's context: cancellation aborts with ctx.Err()
	pool    *pool
	visited *visitedSet
	count   int // generation attempts (budget)
	unique  int // distinct states (reported)
	// model is the pricing model the search actually evaluates with: the
	// caller's Options.Model wrapped in a cost.Memo. The memo exploits COW
	// pointer sharing across states; it never changes a price.
	model cost.Model
	// singleChain records whether S0 renders as a single target chain —
	// the precondition under which signature splicing is provably exact
	// (see workflow.SpliceSignature). The target count is invariant under
	// all five transitions, so it is computed once from the initial state.
	singleChain bool
	// m is never nil: without a journal registry its handles are nil and
	// every record degrades to a no-op.
	m *searchMetrics
	// admitLog, when non-nil, receives every signature passed to admit, one
	// per line in admission order — the seam of the frozen-sequence test.
	admitLog io.Writer
	// rendered counts, under `-tags etldebug`, the successor signatures
	// rendered in full — the seam of the splice-coverage test.
	rendered atomic.Int64
}

func newSearch(ctx context.Context, opts Options) *search {
	s := &search{
		opts:    opts,
		ctx:     ctx,
		pool:    newPool(opts.Workers),
		visited: newVisitedSet(),
		model:   cost.NewMemo(opts.Model),
		m:       newSearchMetrics(opts.Journal, opts.Workers),
	}
	s.pool.busy = s.m.busyHook()
	if opts.PprofLabels {
		s.pool.wrap = searchLabelWrap(ctx)
	}
	return s
}

// searchLabelWrap builds the pool's pprof-label wrapper: each worker's
// body runs under etl=search, etl_worker=<index> labels so CPU profiles
// split samples by worker. Labels never touch results — they only tag the
// goroutine for the profiler.
func searchLabelWrap(ctx context.Context) func(worker int, fn func()) {
	return func(worker int, fn func()) {
		pprof.Do(ctx, pprof.Labels("etl", "search", "etl_worker", strconv.Itoa(worker)),
			func(context.Context) { fn() })
	}
}

// splice appends to dst the signature of a successor derived from its
// parent's by replacing oldSeg with newSeg at site, which it locates in
// parentSig first when site does not answer: nothing located yet, or
// parentSig has left the frame. The states of a local group's job share
// one frame; anchors are the group's tags (see workflow.LocateSplice). ok
// is false, and dst returned as it was, when no splice is provably exact
// and only a full render will do.
func (s *search) splice(dst []byte, site *workflow.SpliceSite, parentSig, oldSeg, newSeg string, anchors []string) ([]byte, bool) {
	if out, ok := site.AppendSplice(dst, parentSig, oldSeg, newSeg); ok {
		return out, true
	}
	at, ok := workflow.LocateSplice(parentSig, oldSeg, s.singleChain, anchors...)
	if !ok {
		return dst, false
	}
	*site = at
	return site.AppendSplice(dst, parentSig, oldSeg, newSeg)
}

// signature returns the canonical signature of res.Graph, spliced from
// parentSig into buf when provably exact, and rendered in full otherwise.
func (s *search) signature(buf []byte, site *workflow.SpliceSite, parentSig string, res *transitions.Result, anchors []string) string {
	sig, spliced := s.splice(buf[:0], site, parentSig, res.SigOld, res.SigNew, anchors)
	return s.intern(sig, spliced, res.Graph)
}

// intern returns the canonical instance of sig when it was spliced, else
// of g's full rendering (counted, and splices audited, under `-tags
// etldebug`). It makes a string only for a signature the search has not
// met, and is safe to call from worker goroutines.
func (s *search) intern(sig []byte, spliced bool, g *workflow.Graph) string {
	if workflow.DebugCOW {
		if full := g.Signature(); !spliced {
			s.rendered.Add(1)
		} else if full != string(sig) {
			panic(fmt.Sprintf("core: spliced signature diverged from full rendering\n  spliced: %s\n  full:    %s", string(sig), full))
		}
	}
	if spliced {
		return s.visited.InternBytes(sig)
	}
	return s.visited.Intern(g.Signature())
}

// signatureOf returns the canonical signature of a successor. It is safe
// to call from worker goroutines.
func (s *search) signatureOf(parent *state, res *transitions.Result) string {
	var site workflow.SpliceSite // a single splice: nothing to keep
	var buf [512]byte
	return s.signature(buf[:0], &site, parent.sig, res, nil)
}

// budgetLeft reports whether the state budget and the caller's context
// allow further generation.
func (s *search) budgetLeft() bool {
	return s.count < s.opts.MaxStates && s.ctx.Err() == nil
}

// admit registers a generated state; it returns false when the state is a
// duplicate (already visited) and dedup is enabled. Every call counts one
// generated state against the budget.
func (s *search) admit(sig string) bool {
	if s.admitLog != nil {
		io.WriteString(s.admitLog, sig+"\n")
	}
	s.count++
	s.m.generated.Inc()
	if s.opts.DisableDedup {
		s.unique++
		s.m.visited.Inc()
		return true
	}
	if !s.visited.Add(sig) {
		return false // the caller records the prune
	}
	s.unique++
	s.m.visited.Inc()
	return true
}

// countShift accounts for intermediate states produced while shifting an
// activity along its local group (each shift step is a generated state).
func (s *search) countShift(n int) {
	s.count += n
	s.unique += n
	// Mirror the budget counters so the exported series track
	// Result.Generated/Visited exactly; shiftSwaps separates out the
	// transient swap states for the curious.
	s.m.generated.Add(int64(n))
	s.m.visited.Add(int64(n))
	s.m.shiftSwaps.Add(int64(n))
}

// evaluate costs a state, incrementally from its parent when enabled.
func (s *search) evaluate(parent *state, g *workflow.Graph, dirty []workflow.NodeID) (*cost.Costing, error) {
	if s.opts.IncrementalCost && parent != nil && parent.costing != nil {
		return cost.EvaluateIncremental(parent.costing, g, s.model, dirty)
	}
	return cost.Evaluate(g, s.model)
}

// makeState wraps a transition result into a costed state. The parent must
// be the state the transition was applied to — its costing is the baseline
// of the semi-incremental evaluation, which only recomputes the dirty
// nodes and their descendants. sig is the state's canonical signature, as
// returned by signatureOf — computing it is the caller's job because
// admission decides on the signature alone, before the state is built.
func (s *search) makeState(parent *state, res *transitions.Result, sig string) (*state, error) {
	costing, err := s.evaluate(parent, res.Graph, res.Dirty)
	if err != nil {
		return nil, err
	}
	step := pathStep{res.Applied, sig, costing.Total, true}
	return &state{g: res.Graph, costing: costing, sig: sig, path: parent.path.push(step)}, nil
}

// makeStateFull costs a derived graph from scratch. It is used when the
// graph is separated from traceParent by intermediate rewrites (the
// ShiftFrw/ShiftBkw swap sequences of HS Phases II and III), so no single
// dirty set relative to the parent exists and incremental costing would
// copy stale values. The shift sequences (pre1 then pre2, either may be
// nil) are recorded on the path as uncosted steps — their intermediate
// graphs are transient, so they carry no signature — while res's own
// transition is recorded costed.
func (s *search) makeStateFull(traceParent *state, res *transitions.Result, pre1, pre2 []transitions.Applied, sig string) (*state, error) {
	costing, err := cost.Evaluate(res.Graph, s.model)
	if err != nil {
		return nil, err
	}
	path := traceParent.path
	for _, pre := range [2][]transitions.Applied{pre1, pre2} {
		for _, a := range pre {
			path = path.push(pathStep{a: a})
		}
	}
	step := pathStep{res.Applied, sig, costing.Total, true}
	return &state{g: res.Graph, costing: costing, sig: sig, path: path.push(step)}, nil
}

// initialState validates and costs S0.
func (s *search) initialState(g0 *workflow.Graph) (*state, error) {
	if err := g0.RegenerateSchemata(); err != nil {
		return nil, fmt.Errorf("core: initial state: %w", err)
	}
	if err := g0.Validate(); err != nil {
		return nil, fmt.Errorf("core: initial state: %w", err)
	}
	if err := g0.CheckWellFormed(); err != nil {
		return nil, fmt.Errorf("core: initial state: %w", err)
	}
	costing, err := cost.Evaluate(g0, s.model)
	if err != nil {
		return nil, fmt.Errorf("core: costing initial state: %w", err)
	}
	s.singleChain = len(g0.Targets()) == 1
	st := &state{g: g0, costing: costing, sig: s.visited.Intern(g0.Signature())}
	if !s.opts.DisableDedup {
		s.visited.Add(st.sig)
	}
	s.m.initialCost.Set(costing.Total)
	s.m.bestCost.Set(costing.Total)
	return st, nil
}

// finishResult splits any merged packages in the best state, recording
// each SPL on the path as an uncosted step (splits never change a state's
// cost, only its granularity), and assembles the Result.
func finishResult(alg string, s0, best *state, s *search, start time.Time, terminated bool) (*Result, error) {
	// The post-processing splits count as SPL attempts/accepts: one per
	// merged package in the best state.
	for _, id := range best.g.Activities() {
		if best.g.Node(id).Act.Sem.Op == workflow.OpMerged {
			s.m.attempt("SPL")
			s.m.accept("SPL")
		}
	}
	final, splits, err := transitions.SplitAll(best.g)
	if err != nil {
		return nil, fmt.Errorf("core: splitting merged activities: %w", err)
	}
	if err := final.RegenerateSchemata(); err != nil {
		return nil, err
	}
	path := best.path.slice()
	for _, res := range splits {
		path = append(path, pathStep{a: res.Applied, sig: res.Graph.Signature()})
	}
	steps := render(path)
	s.m.bestCost.Set(best.costing.Total)
	s.m.recordPath(steps)
	s.flushMemoMetrics()
	return &Result{
		Best:        final,
		BestCost:    best.costing.Total,
		InitialCost: s0.costing.Total,
		Visited:     s.unique,
		Generated:   s.count,
		Elapsed:     time.Since(start),
		Terminated:  terminated,
		Algorithm:   alg,
		Steps:       steps,
	}, nil
}
