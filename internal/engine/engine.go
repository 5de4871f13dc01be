// Package engine executes ETL workflows over real records. The paper
// treats workflows as operational processes run in a nightly time window;
// this package is that runtime substrate. One node driver (runNodes)
// evaluates the graph in topological order, stage by stage: a maximal
// path of row-local activities is one batch loop that materializes
// nothing in between (stage.go), every other node a stage of its own,
// each output held as P tagged partitions — rows exchanged by key where
// an operator's semantics demand it (parallel.go) — until its last reader
// has run, each source scanned one ahead by a reader goroutine. Materialized
// mode is that driver at P=1, Parallel mode the same driver at
// WithPartitions, and checkpointing (CheckpointRunner) a hook staging each
// completed stage, fused or not, as a typed row file — so mode, partitions,
// fault plan, retry policy, journal and metrics compose, and there is no
// other executor: the paper's activities that "output data to one another"
// without intermediate data stores are the members of a fused stage. Both
// modes produce bit-identical target rows, in order, at any partition count.
//
// Beyond running workflows, the engine is the empirical half of the
// correctness framework: two states are equivalent when, on the same
// input, they load the same record multisets into every target (§3.4), and
// the tests exercise every transition against this oracle.
package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// Mode selects the execution strategy.
type Mode uint8

// Execution modes.
const (
	// Materialized evaluates the graph stage by stage in topological
	// order, materializing each stage's full output: the node driver at
	// one partition.
	Materialized Mode = iota
	// Parallel is the node driver at P partitions: order-preserving
	// operators run partition-locally, key-sensitive operators
	// repartition by key first, and an order-stable merge makes the
	// output bit-identical to Materialized at any partition count. See
	// WithPartitions.
	Parallel
)

// String names the mode as it appears in metric labels and journal events.
func (m Mode) String() string {
	switch m {
	case Materialized:
		return "materialized"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Engine executes workflows against bound recordsets.
type Engine struct {
	mode     Mode
	bindings map[string]data.Recordset
	// partitions is Parallel mode's worker count; 0 means GOMAXPROCS.
	partitions int
	// metrics, when non-nil, receives the engine's observability series
	// (see WithMetrics); nil disables collection.
	metrics *obs.Registry
	// journal, when non-nil, receives the flight-recorder event stream of
	// each run (see WithJournal); nil disables emission.
	journal *obs.Journal
	// rec is the run's recorder over metrics and journal, attached by forRun
	// when a run starts (nil when both are off); keys holds each node's
	// label in the run's events (keyNodes).
	rec  *obs.Recorder
	keys map[workflow.NodeID]string
	// pprofLabels tags partition workers with runtime/pprof labels (see
	// WithPprofLabels).
	pprofLabels bool
	// lookups is the run's cache of materialized surrogate-key/lookup
	// tables, attached by forRun when a run starts.
	lookups *lookupCache
	// faults, when non-nil, is the armed fault-injection plan (see
	// WithFaultPlan); nil disables every injection point.
	faults *fault.Plan
	// retry is the per-node retry policy (see WithRetry); the zero value
	// runs every node exactly once.
	retry fault.Policy
}

// Option configures an Engine.
type Option func(*Engine)

// WithMode selects the execution mode (default Materialized).
func WithMode(m Mode) Option { return func(e *Engine) { e.mode = m } }

// WithPartitions sets Parallel mode's partition count (default: the
// number of CPUs), with or without a CheckpointRunner around the engine.
// Any count produces bit-identical output; the count only affects how the
// work is spread. Materialized mode is always one partition and ignores it.
func WithPartitions(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.partitions = n
		}
	}
}

// New creates an engine over the given recordset bindings: every source
// recordset and surrogate-key lookup referenced by a workflow must be
// bound by name. Target recordsets may be bound (rows are loaded into
// them) or unbound (rows are only reported in the RunResult).
func New(bindings map[string]data.Recordset, opts ...Option) *Engine {
	e := &Engine{mode: Materialized, bindings: bindings}
	for _, o := range opts {
		o(e)
	}
	return e
}

// RunResult reports one workflow execution.
type RunResult struct {
	// Targets maps each target recordset name to the rows loaded into it.
	Targets map[string]data.Rows
	// NodeRows reports how many rows each node emitted — the engine's
	// observability hook and the empirical counterpart of the cost model's
	// cardinalities.
	NodeRows map[workflow.NodeID]int
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// SameRun returns nil when got is the same run as want — the run-level
// form of §2.2's "same input, same output" that every equivalence check
// holds the engine to: the same target names, each target's rows the same
// typed values in the same order (equal lengths and Rows.Digest, which
// tells Int(2) from Float(2)), and equal NodeRows. Elapsed is ignored.
// Otherwise the error names the first difference, targets by name and
// nodes by ID: a missing or extra target, the first differing row of a
// target, or a node that is missing, extra or counted differently.
func SameRun(want, got *RunResult) error {
	typed := func(r data.Record) string {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = fmt.Sprintf("%s(%s)", v.Kind(), v)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	names := append(want.SortTargets(), got.SortTargets()...)
	sort.Strings(names)
	for _, name := range slices.Compact(names) {
		w, inWant := want.Targets[name]
		g, inGot := got.Targets[name]
		switch {
		case !inGot:
			return fmt.Errorf("target %s missing (want %d rows)", name, len(w))
		case !inWant:
			return fmt.Errorf("target %s extra (%d rows)", name, len(g))
		case len(w) == len(g) && w.Digest() == g.Digest():
			continue
		}
		for i := range min(len(w), len(g)) {
			if (data.Rows{w[i]}).Digest() != (data.Rows{g[i]}).Digest() {
				return fmt.Errorf("target %s row %d: %s, want %s", name, i, typed(g[i]), typed(w[i]))
			}
		}
		return fmt.Errorf("target %s: %d rows, want %d", name, len(g), len(w))
	}
	var ids []workflow.NodeID
	for _, rows := range []map[workflow.NodeID]int{want.NodeRows, got.NodeRows} {
		for id := range rows {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		w, inWant := want.NodeRows[id]
		g, inGot := got.NodeRows[id]
		switch {
		case !inGot:
			return fmt.Errorf("node %d missing (want %d rows)", id, w)
		case !inWant:
			return fmt.Errorf("node %d extra (%d rows)", id, g)
		case w != g:
			return fmt.Errorf("node %d emitted %d rows, want %d", id, g, w)
		}
	}
	return nil
}

// Run executes the workflow and returns the loaded target rows. The graph
// must be validated and have regenerated schemata. Cancelling ctx stops
// the run at the next stage, partition or — inside a fused stage — batch
// boundary and returns an error wrapping ctx.Err(); rows already loaded
// into bound targets stay loaded. NodeRows is per activity whether or not
// the activity ran fused.
func (e *Engine) Run(ctx context.Context, g *workflow.Graph) (*RunResult, error) {
	return e.run(ctx, g, nil)
}

// run is the run wrapper Run (stage nil) and CheckpointRunner.Run share:
// it resolves the mode to a partition count, attaches the run's lookup
// cache and recorder, emits the run's boundary events and hands the graph
// to the node driver.
func (e *Engine) run(ctx context.Context, g *workflow.Graph, stage *CheckpointRunner) (*RunResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	partitions := 1 // Materialized is the node driver at one partition
	switch e.mode {
	case Materialized:
	case Parallel:
		partitions = e.partitionCount()
	default:
		return nil, fmt.Errorf("engine: unknown mode %d", e.mode)
	}
	e = e.forRun()
	start := time.Now()
	modeName := e.mode.String()
	e.keyNodes(g, partitions)
	if e.rec != nil {
		e.rec.Emit(obs.RunEvent("start", "engine/"+modeName))
		defer e.rec.Emit(obs.RunEvent("end", "engine/"+modeName))
	}
	res, err := e.runNodes(ctx, g, partitions, stage)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	e.recordRun(g, res, modeName)
	return res, nil
}

// runNodes is the node driver: it evaluates the graph stage by stage in
// topological order, holding each stage's output as p tagged partitions
// (parallel.go). A stage (planStages) is a maximal path of row-local
// activities run as one batch loop (stage.go), or any other node alone.
// The driver alone checks for cancellation between stages, consults the
// stage-level fault sites, retries, journals and counts every member, takes
// a source off the reader (readSources), loads a target, drops an output at
// its last reader and — given a checkpoint — restores or persists a stage.
//
// A stage is the retry unit and owns the fault sites: node start and
// per-partition emit are consulted once, under the ID of its last member
// — the node whose output exists; consulting every member's sites would
// multiply an attempt's failure probability by the length of the chain.
// Fault checks frame the body so that every side effect — loading a bound
// target, writing a stage file — happens strictly after its last injection
// point, and nothing of a stage (rows, node events, counters) is recorded
// before it succeeds: a retried stage never loads, stages or counts twice,
// and a retried source keeps the rows it was handed.
func (e *Engine) runNodes(ctx context.Context, g *workflow.Graph, p int, stage *CheckpointRunner) (*RunResult, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	stages := planStages(g, order)
	var restore map[workflow.NodeID][]int // staged member rows by last member: read once, for driver and reader
	if stage != nil {
		if restore, err = stage.prepareStaging(g, stages); err != nil {
			return nil, err
		}
	}
	out := make(map[workflow.NodeID]*pdata, len(order))
	// readers counts a node's consumers yet to complete; its output is dropped
	// with the last: what stays live is the input of the stages still to run.
	readers := make(map[workflow.NodeID]int, len(order))
	for _, id := range order {
		readers[id] = len(g.Consumers(id))
	}
	scr := make([]scratch, p) // one per partition for the whole run
	res := &RunResult{
		Targets:  make(map[string]data.Rows),
		NodeRows: make(map[workflow.NodeID]int),
	}
	rowsSoFar := 0
	ahead := make(chan *scanned)
	quit, stop := context.WithCancel(context.WithoutCancel(ctx))
	go e.readSources(ctx, quit, g, stages, restore, ahead)
	defer func() { // quit is done when the driver returns, and no return leaves the reader running
		stop()
		for range ahead {
		}
	}()
	for _, ids := range stages {
		id := ids[len(ids)-1]
		n := g.Node(id)
		if err := ctx.Err(); err != nil {
			// Surface where the run stopped, not just that it stopped: the
			// next node that would have run and the progress made. Staged
			// stages stay on disk, so cancellation resumes like a crash.
			return nil, fmt.Errorf("engine: run cancelled before node %d (%s) after %d rows: %w",
				ids[0], g.Node(ids[0]).Label(), rowsSoFar, err)
		}
		preds := g.Providers(ids[0])
		activity := n.Kind == workflow.KindActivity
		target := !activity && len(preds) > 0
		// Targets are never staged: loading is the effect that must not be
		// repeated blindly, so a target always re-runs from its provider.
		stageable := stage != nil && !target
		members, restored := restore[id] // never a target's
		var (
			pd      *pdata    // the stage's output; nil for a target nothing reads
			rows    data.Rows // a recordset's or restored stage's rows, in materialized order
			src     *scanned  // a source's hand-over, taken once however often the stage is retried
			tallies []tally   // an activity stage's rows and seconds, per partition and member
			counts  []int     // each member's rows
		)
		body := func() error {
			var err error
			if restored { // ran nowhere: no partition or second to report
				if err := e.checkFault(ctx, fault.SiteRestore, id, n, 0); err != nil {
					return err
				}
				rows, err = stage.loadStage(id, n.Out)
				pd, counts = scatterRows(rows, p), members
				return err
			}
			if err := e.checkFault(ctx, fault.SiteNodeStart, id, n, 0); err != nil {
				return err
			}
			emitParts := 1
			switch {
			case activity:
				emitParts = p
				if streamable(n.Act) {
					var c *rowChain
					if c, err = e.resolveChain(g, ids); err == nil {
						pd, tallies, err = e.execChain(ctx, id, n, c, out[preds[0]], p, scr, rowsSoFar)
					}
				} else {
					pd, err = e.execParallel(ctx, g, id, n, out, p, rowsSoFar)
				}
			case target:
				// Targets are where the partitioned world ends: merge the
				// provider's partitions back into materialized order.
				rows = realign(gather(out[preds[0]]), g.Node(preds[0]).Out, n.RS.Schema)
			default:
				if src == nil {
					if src = <-ahead; src == nil { // closed: the reader saw ctx done
						return fmt.Errorf("engine: run cancelled waiting for source %s after %d rows: %w", n.RS.Name, rowsSoFar, ctx.Err())
					}
				} else if src.err != nil { // retried because the scan failed: scan again, here
					src.rows, src.err = e.scanSource(n)
				}
				if rows, err = src.rows, src.err; err == nil {
					pd = scatterRows(rows, p)
				}
			}
			if err != nil {
				return err
			}
			// Every partition's emit occurrence is consumed even after one
			// fires (forEachPartition's no-short-circuit rule), so the
			// plan's schedule is independent of which partition fails first.
			for q := 0; q < emitParts && e.faults != nil; q++ {
				if ferr := e.checkFault(ctx, fault.SiteEmit, id, n, q); ferr != nil && err == nil {
					err = ferr
				}
			}
			if err != nil {
				return err
			}
			if target {
				res.Targets[n.RS.Name] = rows
				if rs, ok := e.bindings[n.RS.Name]; ok {
					if err := rs.Load(rows); err != nil {
						return fmt.Errorf("engine: loading target %s: %w", n.RS.Name, err)
					}
				}
				if len(g.Consumers(id)) > 0 {
					pd = scatterRows(rows, p)
				}
			}
			// Each member's rows: a chain's from its tallies, the output's
			// from pd, or for a target nothing reads from rows.
			counts = make([]int, len(ids))
			for _, t := range tallies {
				for m, r := range t.rows {
					counts[m] += r
				}
			}
			counts[len(ids)-1] = len(rows)
			if pd != nil {
				counts[len(ids)-1] = pd.total()
			}
			if stageable {
				if err := e.checkFault(ctx, fault.SiteStage, id, n, 0); err != nil {
					return err
				}
				if activity {
					rows = gather(pd)
				}
				return stage.saveStage(id, n.Out, rows, counts)
			}
			return nil
		}
		start := time.Now()
		if err := e.runNode(ctx, id, body); err != nil {
			return nil, err
		}
		if activity && tallies == nil && !restored {
			// A stage of one that is no row chain: its partitions' rows and
			// its wall seconds, retries included.
			sec := []float64{time.Since(start).Seconds()}
			for _, ps := range pd.parts {
				tallies = append(tallies, tally{rows: []int{len(ps.rows)}, sec: sec})
			}
		}
		out[id] = pd
		for m, mid := range ids {
			res.NodeRows[mid] = counts[m]
			rowsSoFar += counts[m]
			if !activity { // a recordset's rows are no event's
				e.metrics.Counter("engine_rows_out_total", "node", e.keys[mid]).Add(int64(counts[m]))
				continue
			}
			var sec float64
			for _, t := range tallies {
				sec = max(sec, t.sec[m])
			}
			e.rec.Emit(obs.NodeEvent(e.keys[mid], counts[m], sec))
			for q, t := range tallies {
				e.rec.Emit(obs.BatchEvent(e.keys[mid], q, t.rows[m]))
			}
		}
		if key := e.keys[id]; stageable {
			if restored {
				e.rec.Emit(obs.CheckpointEvent(key, "restored", counts[len(ids)-1]))
				e.rec.Emit(obs.ResumeEvent(key, counts[len(ids)-1]))
			} else {
				e.rec.Emit(obs.CheckpointEvent(key, "staged", counts[len(ids)-1]))
			}
		}
		// The stage has completed, retries included: its inputs have one
		// reader fewer.
		for _, pr := range preds {
			if readers[pr]--; readers[pr] == 0 {
				delete(out, pr)
			}
		}
	}
	if stage != nil {
		// The load completed: the staging area has served its purpose.
		if err := stage.clear(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// scanned is one source's hand-over from the run's reader to the driver.
type scanned struct {
	rows data.Rows
	err  error
}

// readSources is the run's reader goroutine: it scans the sources in plan
// order, but for the staged ones (the driver's to restore), handing each
// over on the unbuffered ahead — so one is parsed, none queued, ahead of the
// driver — and closes ahead after the last. It begins no scan once ctx is
// done, but gives up a finished one only to quit: the driver's return.
func (e *Engine) readSources(ctx, quit context.Context, g *workflow.Graph, stages [][]workflow.NodeID, restore map[workflow.NodeID][]int, ahead chan<- *scanned) {
	defer close(ahead)
	for _, ids := range stages {
		id := ids[0]
		if _, staged := restore[id]; ctx.Err() == nil && quit.Err() == nil && len(g.Providers(id)) == 0 && !staged {
			rows, err := e.scanSource(g.Node(id))
			select {
			case ahead <- &scanned{rows, err}:
			case <-quit.Done():
				return
			}
		}
	}
}

// scanSource reads a source recordset through its binding.
func (e *Engine) scanSource(n *workflow.Node) (data.Rows, error) {
	rs, ok := e.bindings[n.RS.Name]
	if !ok {
		return nil, fmt.Errorf("engine: source recordset %q not bound", n.RS.Name)
	}
	if !rs.Schema().SameSet(n.RS.Schema) {
		return nil, fmt.Errorf("engine: source %q bound with schema {%s}, workflow declares {%s}",
			n.RS.Name, data.Schema(rs.Schema()), n.RS.Schema)
	}
	rows, err := rs.Scan()
	if err != nil {
		return nil, fmt.Errorf("engine: scanning %s: %w", n.RS.Name, err)
	}
	// The binding's attribute order may differ from the declared one.
	return realign(rows, rs.Schema(), n.RS.Schema), nil
}

// lookupCache is the run-scoped shared cache of indexed lookup recordsets:
// the first node, batch or partition to need one builds it under the lock,
// every later request of the run gets the same read-only key table. It
// lives for one run, so a lookup rebound or rewritten between runs is read
// again.
type lookupCache struct {
	mu     sync.Mutex
	tables map[lookupUse]*keyTable
}

// lookupUse names a lookup recordset and how it is keyed: by its first
// attribute (a surrogate-key table: production key → surrogate in the
// second attribute) or by the whole row (a primary-key check's key set).
type lookupUse struct {
	name     string
	firstKey bool
}

// forRun returns the copy of the engine a run executes on: it carries a
// fresh lookup cache and the run's recorder, and shares the (read-only)
// bindings, registry and journal.
func (e *Engine) forRun() *Engine {
	ec := *e
	ec.lookups = &lookupCache{tables: make(map[lookupUse]*keyTable)}
	ec.rec = obs.NewRecorder(e.metrics, e.journal)
	return &ec
}

// lookupTable indexes a lookup binding, once per run.
func (e *Engine) lookupTable(name string, firstKey bool) (*keyTable, error) {
	c := e.lookups
	c.mu.Lock()
	defer c.mu.Unlock()
	use := lookupUse{name, firstKey}
	if t, ok := c.tables[use]; ok {
		return t, nil
	}
	rs, ok := e.bindings[name]
	if !ok {
		return nil, fmt.Errorf("lookup recordset %q not bound", name)
	}
	rows, err := rs.Scan()
	if err != nil {
		return nil, err
	}
	var pos []int
	if firstKey {
		pos = []int{0}
		for _, r := range rows {
			if len(r) < 2 {
				return nil, fmt.Errorf("lookup %q: row %s has fewer than 2 attributes", name, r)
			}
		}
	}
	t, err := newKeyTable(hashKeys(rows, pos))
	if err != nil {
		return nil, err
	}
	c.tables[use] = t
	return t, nil
}

// SortTargets returns the target names of a result in sorted order, for
// deterministic reporting.
func (r *RunResult) SortTargets() []string {
	names := make([]string, 0, len(r.Targets))
	for n := range r.Targets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
