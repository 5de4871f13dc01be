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
	// Workers bounds how many stages and residual workflows execute
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
	// Engine options are threaded unchanged into every stage and residual
	// engine (mode, partitions, batch, metrics, journal, faults, retry).
	Engine []engine.Option
	// Journal receives shared-cache activity events (lookup/hit/miss/
	// admit/evict/spill); nil disables them. Results are identical with
	// the journal on or off.
	Journal *obs.Journal
	// Metrics receives the shared_cache_* counters, folded from the cache's
	// events; nil disables them.
	Metrics *obs.Registry
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
	// NodesExecuted counts nodes actually run across every stage and
	// residual engine run; NodesIndependent is what independent runs
	// would have executed (the sum of suite graph sizes). The difference
	// is the recomputation the suite avoided.
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
// workflow runs as a residual graph over the cached intermediates. Targets
// and NodeRows of each workflow are bit-identical to running it alone.
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
	r := &runner{
		plan:       p,
		opts:       opts,
		cache:      newCache(opts.CacheBytes, spillDir, obs.NewRecorder(opts.Metrics, opts.Journal)),
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

	// Residual workflows: ready once their consumed stages settled.
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
	// producer run; residual results are patched back to full solo
	// NodeRows through it. Equal fingerprints imply equal row counts, so
	// concurrent writers never disagree.
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
// possible and by (re)executing its producer graph otherwise.
func (r *runner) stageRows(ctx context.Context, fp uint64) (data.Rows, error) {
	st := r.plan.stages[fp]
	r.failMu.Lock()
	if err := r.failed[fp]; err != nil {
		r.failMu.Unlock()
		return nil, err
	}
	r.failMu.Unlock()

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

// runStage executes one producer graph and returns the intermediate's
// rows. Dependencies are resolved through the cache first, so a stage
// whose inputs are still resident never recomputes them.
func (r *runner) runStage(ctx context.Context, st *stage) (data.Rows, error) {
	bindings, err := r.injectBindings(ctx, st.bindings, st.graph, st.injected)
	if err != nil {
		return nil, err
	}
	eng := engine.New(bindings, r.opts.Engine...)
	res, err := eng.Run(ctx, st.graph)
	if err != nil {
		return nil, err
	}
	r.stageRuns.Add(1)
	r.nodesRun.Add(int64(len(res.NodeRows) - 1)) // exclude the artificial target

	r.rowsMu.Lock()
	for orig, nid := range st.idmap {
		r.sharedRows[st.origFPs[orig]] = res.NodeRows[nid]
	}
	r.rowsMu.Unlock()

	rows, ok := res.Targets[stageName(st.fp)]
	if !ok {
		return nil, fmt.Errorf("producer run yielded no %s target", stageName(st.fp))
	}
	return rows, nil
}

// injectBindings returns the run bindings: the workflow's own plus one
// in-memory source per injected shared intermediate.
func (r *runner) injectBindings(ctx context.Context, base map[string]data.Recordset, g *workflow.Graph, injected map[workflow.NodeID]uint64) (map[string]data.Recordset, error) {
	if len(injected) == 0 {
		return base, nil
	}
	bindings := make(map[string]data.Recordset, len(base)+len(injected))
	for name, rs := range base {
		bindings[name] = rs
	}
	for _, fp := range sortedInjected(injected) {
		name := stageName(fp)
		if _, ok := bindings[name]; ok {
			continue
		}
		rows, err := r.stageRows(ctx, fp)
		if err != nil {
			return nil, err
		}
		rs := data.NewMemoryRecordset(name, r.plan.stages[fp].schema)
		if err := rs.Load(rows); err != nil {
			return nil, err
		}
		bindings[name] = rs
	}
	return bindings, nil
}

func sortedInjected(injected map[workflow.NodeID]uint64) []uint64 {
	set := make(map[uint64]bool, len(injected))
	for _, fp := range injected {
		set[fp] = true
	}
	return sortedFPs(set)
}

// runWorkflow executes one residual graph and reconstructs the workflow's
// solo run result: targets come straight from the residual run, NodeRows
// for replaced closure nodes come from the producer runs' per-fingerprint
// counts.
func (r *runner) runWorkflow(ctx context.Context, pw *planWorkflow) (*engine.RunResult, error) {
	bindings, err := r.injectBindings(ctx, pw.wf.Bindings, pw.residual, pw.injected)
	if err != nil {
		return nil, err
	}
	eng := engine.New(bindings, r.opts.Engine...)
	res, err := eng.Run(ctx, pw.residual)
	if err != nil {
		return nil, err
	}
	r.nodesRun.Add(int64(len(res.NodeRows)))

	full := make(map[workflow.NodeID]int, len(pw.fps))
	r.rowsMu.Lock()
	for id := range pw.fps {
		if nid, ok := pw.idmap[id]; ok {
			full[id] = res.NodeRows[nid]
		} else {
			full[id] = r.sharedRows[pw.fps[id]]
		}
	}
	r.rowsMu.Unlock()
	res.NodeRows = full
	return res, nil
}
