package proptest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"etlopt/internal/core"
	"etlopt/internal/engine"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/share"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// Cell is one run configuration of a single workflow: the node driver in
// Parallel mode at P partitions, with or without a journal, under a seeded
// transient fault plan with retry or not, and after a crash or not — a
// checkpointed run killed by a permanent stage/start fault, then resumed
// over its staging directory.
type Cell struct {
	P                      int
	Journal, Faults, Crash bool
}

// SuiteCell is one configuration of a shared suite run: W workers, a cache
// budget (negative: unbounded), spill on or off, the engine at P
// partitions (Parallel mode above 1), and a journal on or off.
type SuiteCell struct {
	W, P           int
	Budget         int64
	Spill, Journal bool
}

// Reference is the run every cell is held to: sc alone, clean, in
// Materialized mode. A solo cell is compared with its workflow's
// reference, a suite cell's members each with their own.
func Reference(sc *templates.Scenario) (*engine.RunResult, error) {
	res, err := engine.New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return res, nil
}

// CheckRuns runs sc once per cell and requires every run to be the same
// run as the reference (engine.SameRun): partition count, journal, retried
// transient faults and a crash-restart resume must all be observationally
// invisible. Each axis keeps its own obligations besides: a journal is
// well-formed and carries the reference's per-node rows, a plan that fired
// left fault and retry events, a crash that left stages left resume
// events, and the killed run failed with a typed, fully attributed
// permanent *fault.Injected despite its retry budget. seed fixes the fault
// schedules.
func CheckRuns(sc *templates.Scenario, seed int64, cells []Cell) error {
	ref, err := Reference(sc)
	if err != nil {
		return err
	}
	for _, c := range cells {
		if err := checkCell(sc, seed, ref, c); err != nil {
			return fmt.Errorf("%+v: %w", c, err)
		}
	}
	return nil
}

func checkCell(sc *templates.Scenario, seed int64, ref *engine.RunResult, c Cell) error {
	ctx := context.Background()
	mode := []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(c.P)}
	retry := engine.WithRetry(fault.Policy{MaxAttempts: 8, Seed: seed})
	stage, staged := "", 0 // the killed run's staging dir and what it left there
	if c.Crash {
		dir, err := os.MkdirTemp("", "etlopt-cell-")
		if err != nil {
			return fmt.Errorf("staging dir: %w", err)
		}
		defer os.RemoveAll(dir)
		stage = dir
		crash := fault.NewPlan(seed+2, 0.5, fault.WithKind(fault.Permanent),
			fault.WithSites(fault.SiteStage, fault.SiteNodeStart))
		cr, err := engine.NewCheckpointRunner(engine.New(sc.Bind(), append(mode, engine.WithFaultPlan(crash), retry)...), dir)
		if err != nil {
			return err
		}
		_, err = cr.Run(ctx, sc.Graph)
		var inj *fault.Injected
		switch fired := crash.Injected(); {
		case fired == 0 && err != nil:
			return fmt.Errorf("killed run failed with no fault fired: %w", err)
		case fired > 0 && err == nil:
			return fmt.Errorf("permanent plan fired %d faults but did not fail the run", fired)
		case fired > 0 && !errors.As(err, &inj):
			return fmt.Errorf("permanent failure is not a typed *fault.Injected: %v", err)
		case fired > 0 && (inj.Kind != fault.Permanent || inj.Site == "" || inj.Node < 0 || inj.Part < 0):
			return fmt.Errorf("permanent fault attribution incomplete: %+v", inj)
		}
		ids, _ := cr.Staged()
		staged = len(ids)
	}
	opts := mode
	var buf bytes.Buffer
	var j *obs.Journal
	if c.Journal {
		j = obs.NewJournal(&buf, nil)
		opts = append(opts, engine.WithJournal(j), engine.WithPprofLabels())
	}
	var plan *fault.Plan
	if c.Faults {
		// MaxPerKey 1 bounds the failed attempts of one node by its
		// injection-site depth (restore, start, exchange, emit), so a
		// budget of 8 guarantees convergence.
		plan = fault.NewPlan(seed, 0.35)
		opts = append(opts, engine.WithFaultPlan(plan), retry)
	}
	e := engine.New(sc.Bind(), opts...)
	run := e.Run
	if c.Crash {
		cr, err := engine.NewCheckpointRunner(e, stage)
		if err != nil {
			return err
		}
		run = cr.Run
	}
	res, err := run(ctx, sc.Graph)
	if j != nil {
		err = errors.Join(err, j.Close())
	}
	if err != nil {
		return fmt.Errorf("run failed (%d faults fired): %w", plan.Injected(), err)
	}
	if err := engine.SameRun(ref, res); err != nil || !c.Journal {
		return err
	}
	return checkJournal(buf.Bytes(), ref, plan.Injected(), staged)
}

// checkJournal checks a recorded journal: its framing (paired run
// boundaries, one summary trailer accounting for the file's events), one
// node event per completed activity carrying the reference's row count,
// attributed fault and well-formed retry events — at least one of each
// when the plan fired injected faults — and resume events when a crash
// left staged stages. A nil ref checks the framing alone.
func checkJournal(raw []byte, ref *engine.RunResult, injected, staged int) error {
	evs, err := obs.ReadJournal(bytes.NewReader(raw))
	if err != nil || len(evs) == 0 {
		return fmt.Errorf("journal unreadable or empty (%d events): %v", len(evs), err)
	}
	counts, nodeEvents := map[string]int{}, map[workflow.NodeID]int{}
	for _, e := range evs {
		counts[e.T]++
		switch e.T {
		case obs.EventNode:
			key, _, _ := strings.Cut(e.Node, ":")
			n, err := strconv.Atoi(key)
			id := workflow.NodeID(n)
			nodeEvents[id]++
			switch {
			case err != nil:
				return fmt.Errorf("node event with unparseable key %q: %w", e.Node, err)
			case ref == nil:
			case nodeEvents[id] > 1:
				return fmt.Errorf("node %d journaled %d node events, want 1 per completed node", id, nodeEvents[id])
			case e.Rows != int64(ref.NodeRows[id]):
				return fmt.Errorf("node %d journal rows %d, reference emitted %d", id, e.Rows, ref.NodeRows[id])
			}
		case obs.EventFault:
			if e.Node == "" || e.Action == "" || e.Detail == "" {
				return fmt.Errorf("fault event missing attribution: %+v", e)
			}
		case obs.EventRetry:
			if e.Node == "" || e.Attempt < 2 {
				return fmt.Errorf("retry event malformed: %+v", e)
			}
		}
	}
	last := evs[len(evs)-1]
	switch body := int64(len(evs) - 1); {
	case counts[obs.EventRun]%2 != 0:
		return fmt.Errorf("journal has %d run boundaries, want start/end pairs", counts[obs.EventRun])
	case counts[obs.EventSummary] != 1:
		return fmt.Errorf("journal has %d summary events, want exactly 1", counts[obs.EventSummary])
	case last.T != obs.EventSummary:
		return fmt.Errorf("journal does not end with the summary trailer (last event %q)", last.T)
	case last.Events+last.Dropped < body:
		return fmt.Errorf("summary accounts for %d events (+%d dropped), file holds %d", last.Events, last.Dropped, body)
	case ref == nil:
		return nil
	case injected > 0 && counts[obs.EventFault] == 0:
		return fmt.Errorf("plan fired %d faults but the journal holds no fault events", injected)
	case injected > 0 && counts[obs.EventRetry] == 0:
		return fmt.Errorf("run recovered from %d faults with no journaled retries", injected)
	case staged > 0 && counts[obs.EventResume] == 0:
		return fmt.Errorf("crash left %d staged stages but the resumed run journaled no resume events", staged)
	}
	return nil
}

// CheckSuite runs the suite's members through share.RunSuite in cell c
// and requires each to be the same run as its own reference, refs[i]
// (engine.SameRun): the scheduler, cache, eviction and spill must be
// observationally invisible. The suite's cache statistics must also hold
// their invariants (hits never exceed lookups, eviction never frees more
// bytes than admission recorded), and a journal must be well-formed.
// spillDir is where the cell spills, if it does.
func CheckSuite(scs []*templates.Scenario, refs []*engine.RunResult, c SuiteCell, spillDir string) error {
	opts := share.Options{Workers: c.W, CacheBytes: c.Budget}
	if c.P > 1 {
		opts.Engine = []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(c.P)}
	}
	if c.Spill {
		opts.SpillDir = spillDir
	}
	var buf bytes.Buffer
	if c.Journal {
		opts.Journal = obs.NewJournal(&buf, nil)
		opts.Engine = append(opts.Engine, engine.WithJournal(opts.Journal))
	}
	wfs := make([]share.Workflow, len(scs))
	for i, sc := range scs {
		wfs[i] = share.Workflow{Name: fmt.Sprintf("wf-%02d", i+1), Graph: sc.Graph, Bindings: sc.Bind()}
	}
	res, err := share.RunSuite(context.Background(), wfs, opts)
	if c.Journal {
		err = errors.Join(err, opts.Journal.Close())
	}
	if err != nil {
		return fmt.Errorf("suite run: %w", err)
	}
	for i, wr := range res.Workflows {
		if wr.Err != nil {
			return fmt.Errorf("%s failed in suite mode: %w", wr.Name, wr.Err)
		}
		if err := engine.SameRun(refs[i], wr.Result); err != nil {
			return fmt.Errorf("%s diverges from its solo run: %w", wr.Name, err)
		}
	}
	switch st := res.Stats; {
	case st.Workflows != len(scs):
		return fmt.Errorf("stats cover %d workflows, suite has %d", st.Workflows, len(scs))
	case st.Cache.Hits > st.Cache.Lookups:
		return fmt.Errorf("cache stats corrupt: %d hits exceed %d lookups", st.Cache.Hits, st.Cache.Lookups)
	case st.Cache.EvictedBytes > st.Cache.AdmittedBytes:
		return fmt.Errorf("cache stats corrupt: eviction freed %d bytes, admission recorded %d",
			st.Cache.EvictedBytes, st.Cache.AdmittedBytes)
	case c.Journal:
		return checkJournal(buf.Bytes(), nil, 0, 0)
	}
	return nil
}

// CheckSearchJournal is the search half of journal invariance: the
// scenario's HS search, run plain and journaled (with pprof labels) at
// each worker count, must reach the same best cost and signature after
// the same visited and generated counts, and the journal must be
// well-formed.
func CheckSearchJournal(sc *templates.Scenario, workers []int) error {
	for _, w := range workers {
		// A bounded budget keeps the check fast; determinism must hold at
		// any budget, so a partial search is as good a probe as a full one.
		opts := core.Options{Workers: w, IncrementalCost: true, MaxStates: 3000}
		plain, err := core.Heuristic(context.Background(), sc.Graph, opts)
		if err != nil {
			return fmt.Errorf("W=%d: plain search: %w", w, err)
		}
		var buf bytes.Buffer
		opts.Journal = obs.NewJournal(&buf, nil)
		opts.PprofLabels = true
		rec, err := core.Heuristic(context.Background(), sc.Graph, opts)
		if err = errors.Join(err, opts.Journal.Close()); err != nil {
			return fmt.Errorf("W=%d: journaled search: %w", w, err)
		}
		switch {
		case rec.BestCost != plain.BestCost:
			return fmt.Errorf("W=%d: best cost %v with journal, %v without", w, rec.BestCost, plain.BestCost)
		case rec.Best.Signature() != plain.Best.Signature():
			return fmt.Errorf("W=%d: best signature %q with journal, %q without", w, rec.Best.Signature(), plain.Best.Signature())
		case rec.Visited != plain.Visited || rec.Generated != plain.Generated:
			return fmt.Errorf("W=%d: visited/generated %d/%d with journal, %d/%d without",
				w, rec.Visited, rec.Generated, plain.Visited, plain.Generated)
		}
		if err := checkJournal(buf.Bytes(), nil, 0, 0); err != nil {
			return fmt.Errorf("W=%d: %w", w, err)
		}
	}
	return nil
}
