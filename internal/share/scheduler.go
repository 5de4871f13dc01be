package share

import (
	"cmp"
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
	// CacheBytes bounds the estimated bytes of shared intermediates held in
	// memory (< 0: unbounded). A stage that does not fit is spilled to a
	// typed row file as it is admitted, and each is released after its last
	// read. The files go in a suite-* directory that RunSuite makes before
	// any run and removes before it returns.
	CacheBytes int64
	// SpillDir is where that directory is made ("": os.TempDir()).
	SpillDir string
	// Engine options are threaded unchanged into every producer and member
	// run (partitions, fault plan, retry, journal, metrics).
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
	// StageRuns counts producer executions: each stage's producer runs
	// once, unless a stage it reads failed.
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
// detected by content, materialized once each into a slot of their own,
// and every workflow runs its own graph, restoring each shared intermediate
// it reads from its slot and skipping what only feeds one. Targets and
// NodeRows of each workflow are bit-identical to running it alone.
// RunSuite returns an error only when its spill directory cannot be made
// or planning fails, and then runs nothing; per-workflow execution
// failures are isolated in the result.
func RunSuite(ctx context.Context, wfs []Workflow, opts Options) (*Result, error) {
	spillDir, err := makeSpillDir(opts)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir) // "" removes nothing
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p, err := newPlan(ctx, wfs, workers)
	if err != nil {
		return nil, err
	}
	return newRunner(p, opts, spillDir).suite(ctx, workers), nil
}

// makeSpillDir makes the suite's own directory for a bounded budget's spill
// files, which serve one run only ("" for an unbounded budget).
func makeSpillDir(opts Options) (string, error) {
	if opts.CacheBytes < 0 {
		return "", nil
	}
	parent := cmp.Or(opts.SpillDir, os.TempDir())
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", fmt.Errorf("share: spill directory: %w", err)
	}
	dir, err := os.MkdirTemp(parent, "suite-*")
	if err != nil {
		return "", fmt.Errorf("share: spill directory: %w", err)
	}
	return dir, nil
}

// runner holds the mutable state of one suite execution.
type runner struct {
	plan     *plan
	opts     Options
	spillDir string
	rec      *obs.Recorder // shared_cache_* series are folded from its events

	// mu guards every stage's slot and what follows. sharedRows holds
	// per-class output row counts from every run; a later run reports the
	// nodes it skips or restores from it. One class is one computation over
	// the same data, so concurrent writers never disagree.
	mu         sync.Mutex
	used       int64 // bytes of the resident stages
	stats      CacheStats
	sharedRows map[int]int

	stageRuns atomic.Int64
	nodesRun  atomic.Int64
}

// newRunner returns the runner of p, spilling into spillDir (made; "" only
// when the budget is unbounded); every shared_cache_* series is registered
// from the start.
func newRunner(p *plan, opts Options, spillDir string) *runner {
	opts.Engine = append([]engine.Option{engine.WithJournal(opts.Journal)}, opts.Engine...)
	r := &runner{plan: p, opts: opts, spillDir: spillDir, sharedRows: make(map[int]int),
		rec: obs.NewRecorder(opts.Journal.Registry(), opts.Journal)}
	for _, action := range []string{"lookup", "hit", "miss", "admit", "evict", "spill"} {
		r.rec.Declare(obs.SharedCacheEvent(action, 0))
	}
	return r
}

// suite runs every producer and member run. Each starts once the stages it
// reads are done (filled or failed), up to workers at a time, and is given
// the error of the first of them that failed: a member one of whose stages
// failed does not start, and fails with that stage's error.
func (r *runner) suite(ctx context.Context, workers int) *Result {
	p := r.plan
	res := &Result{Workflows: make([]WorkflowResult, len(p.workflows))}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	start := func(deps []int, run func(failed error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range deps {
				<-p.stages[d].done
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			var failed error
			r.mu.Lock()
			for _, d := range deps {
				failed = cmp.Or(failed, p.stages[d].err)
			}
			r.mu.Unlock()
			run(failed)
		}()
	}
	for _, c := range p.order {
		st := p.stages[c]
		start(st.deps, func(failed error) { r.produce(ctx, st, failed) })
	}
	for i, pw := range p.workflows {
		start(pw.deps, func(err error) {
			var run *engine.RunResult
			if err == nil {
				run, _, err = r.run(ctx, pw, pw.need, 0)
			}
			res.Workflows[i] = WorkflowResult{Name: wfName(pw.wf, i), Result: run, Err: err}
		})
	}
	wg.Wait()

	res.Stats = Stats{
		Workflows:     len(p.workflows),
		Stages:        len(p.stages),
		StageRuns:     r.stageRuns.Load(),
		NodesExecuted: r.nodesRun.Load(),
		Cache:         r.stats,
	}
	for _, pw := range p.workflows {
		res.Stats.NodesIndependent += int64(pw.wf.Graph.Len())
	}
	return res
}

// run executes pw's graph over need, returning the output of keep (0:
// none, a member's run; else a stage run), counts the nodes it executes and
// publishes their rows by class.
func (r *runner) run(ctx context.Context, pw *planWorkflow, need map[workflow.NodeID]bool, keep workflow.NodeID) (*engine.RunResult, data.Rows, error) {
	sr := &suiteRun{r: r, pw: pw, need: need, keep: keep, rows: make(map[int]data.Rows)}
	res, err := engine.New(pw.wf.Bindings, r.opts.Engine...).RunWith(ctx, pw.wf.Graph, sr)
	if err != nil {
		return nil, nil, err
	}
	executed := 0
	r.mu.Lock()
	for id := range need {
		r.sharedRows[pw.classes[id]] = res.NodeRows[id]
		if !sr.restores(id) {
			executed++
		}
	}
	r.mu.Unlock()
	r.nodesRun.Add(int64(executed))
	if keep != 0 {
		r.stageRuns.Add(1)
	}
	return res, sr.kept, nil
}

// suiteRun is one producer or member run, and the engine's stage hook in
// it: each stage node ends a stage, the needed ones but keep are
// restored from their slots, every node outside need is skipped with the
// rows the producers counted for its class, and only keep's output
// is kept.
type suiteRun struct {
	r    *runner
	pw   *planWorkflow
	need map[workflow.NodeID]bool
	keep workflow.NodeID
	kept data.Rows
	// rows holds what this run restored, by class: homologous twins take
	// one read.
	rows map[int]data.Rows
}

// restores reports whether the run takes id from its slot: a needed
// stage node other than keep.
func (sr *suiteRun) restores(id workflow.NodeID) bool {
	return sr.need[id] && sr.pw.shared[id] && id != sr.keep
}

func (sr *suiteRun) Ends(id workflow.NodeID) bool { return sr.pw.shared[id] }

func (sr *suiteRun) Plan(_ *workflow.Graph, stages [][]workflow.NodeID) (restored, skipped map[workflow.NodeID][]int, err error) {
	restored, skipped = make(map[workflow.NodeID][]int), make(map[workflow.NodeID][]int)
	sr.r.mu.Lock()
	defer sr.r.mu.Unlock()
	for _, ids := range stages {
		id := ids[len(ids)-1]
		rows := make([]int, len(ids))
		for m, mid := range ids {
			rows[m] = sr.r.sharedRows[sr.pw.classes[mid]]
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
	c := sr.pw.classes[id]
	if rows, ok := sr.rows[c]; ok {
		return rows, nil
	}
	rows, err := sr.r.read(sr.r.plan.stages[c])
	if err == nil {
		sr.rows[c] = rows
	}
	return rows, err
}

func (sr *suiteRun) Keeps(id workflow.NodeID) bool { return id == sr.keep }

func (sr *suiteRun) Keep(_ workflow.NodeID, _ data.Schema, rows data.Rows, _ []int) error {
	sr.kept = rows
	return nil
}
