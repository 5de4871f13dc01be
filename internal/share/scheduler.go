package share

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// Options parameterizes a suite run.
type Options struct {
	// Workers bounds how many producer and member runs execute
	// concurrently; 0 or less means GOMAXPROCS.
	Workers int
	// CacheBytes is the intermediate-result cache budget: negative means
	// unbounded, zero forces every admission straight through eviction
	// (and spill, when SpillDir is set).
	CacheBytes int64
	// SpillDir, when non-empty, spills evicted intermediates to typed row
	// files in a subdirectory of it that RunSuite removes before it returns,
	// instead of dropping them. A directory that cannot be made spills nothing.
	SpillDir string
	// Engine options are threaded unchanged into every producer and member
	// run (mode, partitions, fault plan, retry, journal, metrics).
	Engine []engine.Option
	// Journal receives shared-cache activity events (lookup/hit/miss/
	// admit/evict/spill) and every producer and member run's events; the
	// registry it was opened with, if any, receives the shared_cache_*
	// counters and the runs' series. nil disables them. Results are
	// identical with the journal on or off.
	Journal *obs.Journal
}

// WorkflowResult is one suite member's outcome. Exactly one of Result and
// Err is set: a failed shared stage fails every workflow that consumes it
// (with the same underlying error) and no others.
type WorkflowResult struct {
	Name   string
	Result *engine.RunResult
	Err    error
}

// Stats summarizes what sharing bought: stage and node accounting plus the
// cache's byte-level counters.
type Stats struct {
	// Workflows is the suite size, Stages the number of distinct shared
	// intermediates planned (each appears exactly once in the stage DAG).
	Workflows int `json:"workflows"`
	Stages    int `json:"stages"`
	// StageRuns counts producer executions, including any recomputation
	// forced by eviction; with an adequate budget it equals Stages.
	StageRuns int64 `json:"stage_runs"`
	// NodesExecuted counts nodes run across every producer and member run
	// (a restored stage node is not run); NodesIndependent is what
	// independent runs would have executed (the sum of suite graph sizes).
	// The difference is the recomputation the suite avoided.
	NodesExecuted    int64      `json:"nodes_executed"`
	NodesIndependent int64      `json:"nodes_independent"`
	Cache            CacheStats `json:"cache"`
}

// Result is a suite run's outcome, in input order.
type Result struct {
	Workflows []WorkflowResult
	Stats     Stats
}

// RunSuite executes the workflows as one job: shared upstream closures are
// detected by content, materialized once each through the cache, and every
// workflow runs its own graph, restoring each shared intermediate it reads
// from the cache and skipping what only feeds one. Targets and NodeRows of
// each workflow are bit-identical to running it alone.
// RunSuite returns an error only when planning fails; per-workflow
// execution failures are isolated in the result.
func RunSuite(ctx context.Context, wfs []Workflow, opts Options) (*Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p, err := newPlan(ctx, wfs, workers)
	if err != nil {
		return nil, err
	}
	// Spill files serve this run only (a later cache's index starts empty), so
	// they go with it; a directory of its own keeps a concurrent suite's safe.
	spillDir := ""
	if opts.SpillDir != "" && os.MkdirAll(opts.SpillDir, 0o755) == nil {
		spillDir, _ = os.MkdirTemp(opts.SpillDir, "suite-*") // "" on failure: nothing spills, nothing to remove
		defer os.RemoveAll(spillDir)
	}
	opts.Engine = append([]engine.Option{engine.WithJournal(opts.Journal)}, opts.Engine...)
	r := &runner{
		plan:       p,
		opts:       opts,
		cache:      newCache(opts.CacheBytes, spillDir, obs.NewRecorder(opts.Journal.Registry(), opts.Journal)),
		sharedRows: make(map[uint64]int),
		failed:     make(map[uint64]error),
	}

	res := &Result{Workflows: make([]WorkflowResult, len(p.workflows))}
	sem := make(chan struct{}, workers)
	done := make(map[uint64]chan struct{}, len(p.order))
	for _, fp := range p.order {
		done[fp] = make(chan struct{})
	}
	var wg sync.WaitGroup

	// Producer stages: a stage becomes ready when its dependencies have
	// settled (succeeded or failed); ready stages run concurrently up to
	// the worker bound. Failures propagate through r.failed, so a
	// dependent stage fails fast instead of recomputing a poisoned
	// closure.
	for _, fp := range p.order {
		wg.Add(1)
		go func(fp uint64) {
			defer wg.Done()
			st := p.stages[fp]
			for _, d := range st.deps {
				<-done[d]
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			r.stageRows(ctx, fp)
			close(done[fp])
		}(fp)
	}

	// Member runs: ready once their consumed stages settled.
	for i, pw := range p.workflows {
		wg.Add(1)
		go func(i int, pw *planWorkflow) {
			defer wg.Done()
			for _, d := range pw.deps {
				<-done[d]
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			run, err := r.runWorkflow(ctx, pw)
			res.Workflows[i] = WorkflowResult{Name: wfName(pw.wf, i), Result: run, Err: err}
		}(i, pw)
	}
	wg.Wait()

	res.Stats = Stats{
		Workflows:     len(p.workflows),
		Stages:        len(p.stages),
		StageRuns:     r.stageRuns.Load(),
		NodesExecuted: r.nodesRun.Load(),
		Cache:         r.cache.Stats(),
	}
	for _, pw := range p.workflows {
		res.Stats.NodesIndependent += int64(pw.wf.Graph.Len())
	}
	return res, nil
}

// runner holds the mutable state of one suite execution.
type runner struct {
	plan *plan
	opts Options

	cache *cache

	// sharedRows accumulates per-fingerprint output row counts from every
	// run; a later run reports the nodes it skips or restores from it.
	// Equal fingerprints imply equal row counts, so concurrent writers
	// never disagree.
	rowsMu     sync.Mutex
	sharedRows map[uint64]int

	// failed pins the first error of each stage for the suite's
	// lifetime: siblings sharing the stage fail fast with the same error,
	// and a deterministic fault plan is never re-fired by recomputation.
	failMu sync.Mutex
	failed map[uint64]error

	stageRuns atomic.Int64
	nodesRun  atomic.Int64
}

// stageRows returns the shared intermediate's rows, from the cache when
// possible and by (re)executing its producer run otherwise.
func (r *runner) stageRows(ctx context.Context, fp uint64) (data.Rows, error) {
	st := r.plan.stages[fp]
	if err := r.pinned(fp); err != nil {
		return nil, err
	}

	rows, _, err := r.cache.GetOrCompute(st.key, st.schema, func() (data.Rows, error) {
		return r.runStage(ctx, st)
	})
	if err != nil {
		r.failMu.Lock()
		if r.failed[fp] == nil {
			r.failed[fp] = fmt.Errorf("share: stage %s: %w", st.key, err)
		}
		err = r.failed[fp]
		r.failMu.Unlock()
		return nil, err
	}
	return rows, nil
}

// pinned returns the pinned error of the first of the stages fps that
// failed, or nil.
func (r *runner) pinned(fps ...uint64) error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	for _, fp := range fps {
		if err := r.failed[fp]; err != nil {
			return err
		}
	}
	return nil
}

// runStage executes the stage's producer run and returns the intermediate's
// rows. Dependencies are resolved through the cache as the run restores
// them, so a stage whose inputs are still resident never recomputes them.
// A stage one of whose dependencies failed does not start.
func (r *runner) runStage(ctx context.Context, st *stage) (data.Rows, error) {
	if err := r.pinned(st.deps...); err != nil {
		return nil, err
	}
	_, rows, err := r.run(ctx, st.pw, st.need, st.id)
	if err == nil {
		r.stageRuns.Add(1)
	}
	return rows, err
}

// runWorkflow executes one member's run: the nodes its targets need, each
// stage node among them restored from the cache. A member one of
// whose stages failed does not start, and fails with that stage's error.
func (r *runner) runWorkflow(ctx context.Context, pw *planWorkflow) (*engine.RunResult, error) {
	if err := r.pinned(pw.deps...); err != nil {
		return nil, err
	}
	res, _, err := r.run(ctx, pw, pw.need, 0)
	return res, err
}

// run executes pw's graph over need, returning the output of keep (0:
// none), counts the nodes it executes and publishes their rows by
// fingerprint.
func (r *runner) run(ctx context.Context, pw *planWorkflow, need map[workflow.NodeID]bool, keep workflow.NodeID) (*engine.RunResult, data.Rows, error) {
	sr := &suiteRun{ctx: ctx, r: r, pw: pw, need: need, keep: keep, rows: make(map[uint64]data.Rows)}
	res, err := engine.New(pw.wf.Bindings, r.opts.Engine...).RunWith(ctx, pw.wf.Graph, sr)
	if err != nil {
		return nil, nil, err
	}
	executed := 0
	r.rowsMu.Lock()
	for id := range need {
		r.sharedRows[pw.fps[id]] = res.NodeRows[id]
		if !sr.restores(id) {
			executed++
		}
	}
	r.rowsMu.Unlock()
	r.nodesRun.Add(int64(executed))
	return res, sr.kept, nil
}

// suiteRun is one producer or member run, and the engine's stage hook in
// it: each stage node ends a stage, the needed ones but keep are
// restored from the cache, every node outside need is skipped with the
// rows the producers counted for its fingerprint, and only keep's output
// is kept.
type suiteRun struct {
	ctx  context.Context
	r    *runner
	pw   *planWorkflow
	need map[workflow.NodeID]bool
	keep workflow.NodeID
	kept data.Rows
	// rows holds what this run restored, by fingerprint: homologous twins
	// take one cache lookup.
	rows map[uint64]data.Rows
}

// restores reports whether the run takes id from the cache: a needed
// stage node other than keep.
func (sr *suiteRun) restores(id workflow.NodeID) bool {
	return sr.need[id] && sr.pw.shared[id] && id != sr.keep
}

func (sr *suiteRun) Ends(id workflow.NodeID) bool { return sr.pw.shared[id] }

func (sr *suiteRun) Plan(_ *workflow.Graph, stages [][]workflow.NodeID) (restored, skipped map[workflow.NodeID][]int, err error) {
	restored, skipped = make(map[workflow.NodeID][]int), make(map[workflow.NodeID][]int)
	sr.r.rowsMu.Lock()
	defer sr.r.rowsMu.Unlock()
	for _, ids := range stages {
		id := ids[len(ids)-1]
		rows := make([]int, len(ids))
		for m, mid := range ids {
			rows[m] = sr.r.sharedRows[sr.pw.fps[mid]]
		}
		switch {
		case !sr.need[id]:
			skipped[id] = rows
		case sr.restores(id):
			restored[id] = rows
		}
	}
	return restored, skipped, nil
}

func (sr *suiteRun) Restore(id workflow.NodeID, _ data.Schema) (data.Rows, error) {
	fp := sr.pw.fps[id]
	if rows, ok := sr.rows[fp]; ok {
		return rows, nil
	}
	rows, err := sr.r.stageRows(sr.ctx, fp)
	if err == nil {
		sr.rows[fp] = rows
	}
	return rows, err
}

func (sr *suiteRun) Keeps(id workflow.NodeID) bool { return id == sr.keep }

func (sr *suiteRun) Keep(_ workflow.NodeID, _ data.Schema, rows data.Rows, _ []int) error {
	sr.kept = rows
	return nil
}
