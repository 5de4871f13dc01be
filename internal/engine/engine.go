// Package engine executes ETL workflows over real records. The paper
// treats workflows as operational processes run in a nightly time window;
// this package is that runtime substrate. Three execution modes are
// provided: a materialized mode that evaluates nodes in topological order
// (deterministic, easy to debug), a pipelined mode that runs every
// activity as a goroutine connected by channels, matching the paper's
// observation that activities "are allowed to output data to one another"
// without intermediate data stores, and a partition-parallel mode that
// splits every recordset across P partitions and executes each activity
// partition by partition, exchanging rows by key where an operator's
// semantics demand it (see parallel.go). All three modes produce
// bit-identical target rows.
//
// Beyond running workflows, the engine is the empirical half of the
// correctness framework: two states are equivalent when, on the same
// input, they load the same record multisets into every target (§3.4), and
// the tests exercise every transition against this oracle.
package engine

import (
	"context"
	"fmt"
	"sort"
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
	// Materialized evaluates nodes one by one in topological order,
	// materializing each node's full output.
	Materialized Mode = iota
	// Pipelined runs one goroutine per node, streaming records through
	// channels; blocking operations (aggregations, duplicate checks,
	// difference) buffer internally as needed.
	Pipelined
	// Parallel partitions every recordset across P partition workers,
	// executes order-preserving operators partition-locally, repartitions
	// by key for key-sensitive operators, and merges partitions with an
	// order-stable reduce so output is bit-identical to Materialized at
	// any partition count. See WithPartitions.
	Parallel
)

// String names the mode as it appears in metric labels and journal events.
func (m Mode) String() string {
	switch m {
	case Materialized:
		return "materialized"
	case Pipelined:
		return "pipelined"
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
	batch    int
	// partitions is Parallel mode's worker count; 0 means GOMAXPROCS.
	partitions int
	// metrics, when non-nil, receives the engine's observability series
	// (see WithMetrics); nil disables collection.
	metrics *obs.Registry
	// journal, when non-nil, receives the flight-recorder event stream of
	// each run (see WithJournal); nil disables emission.
	journal *obs.Journal
	// pprofLabels tags partition workers with runtime/pprof labels (see
	// WithPprofLabels).
	pprofLabels bool
	// lookups is the run's cache of materialized surrogate-key/lookup
	// tables, attached by withLookupCache when a run starts.
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

// WithBatchSize sets the pipelined mode's channel batch size (default 64).
func WithBatchSize(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.batch = n
		}
	}
}

// WithPartitions sets Parallel mode's partition count (default: the
// number of CPUs). Any count produces bit-identical output; the count
// only affects how the work is spread. Ignored by the other modes.
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
	e := &Engine{
		mode:     Materialized,
		bindings: bindings,
		batch:    64,
	}
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

// Run executes the workflow and returns the loaded target rows. The graph
// must be validated and have regenerated schemata. Cancelling ctx stops
// the run at the next node (materialized and parallel modes) or batch
// (pipelined mode) boundary and returns an error wrapping ctx.Err(); rows
// already loaded into bound targets stay loaded.
func (e *Engine) Run(ctx context.Context, g *workflow.Graph) (*RunResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e = e.withLookupCache()
	start := time.Now()
	var (
		res *RunResult
		err error
	)
	partitions := 0
	if e.mode == Parallel {
		partitions = e.partitionCount()
	}
	modeName := e.mode.String()
	rm := e.newRunMetrics(g, partitions)
	if e.journal != nil {
		e.journal.Emit(obs.RunEvent("start", "engine/"+modeName))
		defer e.journal.Emit(obs.RunEvent("end", "engine/"+modeName))
	}
	span := e.metrics.StartSpan("engine/" + modeName)
	rm.setSpan(span)
	switch e.mode {
	case Materialized:
		res, err = e.runMaterialized(ctx, g, rm)
	case Pipelined:
		res, err = e.runPipelined(ctx, g, rm)
	case Parallel:
		res, err = e.runParallel(ctx, g, rm)
	default:
		span.End()
		return nil, fmt.Errorf("engine: unknown mode %d", e.mode)
	}
	span.End()
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	e.recordRun(g, res, modeName)
	return res, nil
}

// runMaterialized evaluates the graph node by node in topological order,
// checking for cancellation between nodes.
func (e *Engine) runMaterialized(ctx context.Context, g *workflow.Graph, rm *runMetrics) (*RunResult, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	out := make(map[workflow.NodeID]data.Rows, len(order))
	res := &RunResult{
		Targets:  make(map[string]data.Rows),
		NodeRows: make(map[workflow.NodeID]int),
	}
	rowsSoFar := 0
	for _, id := range order {
		n := g.Node(id)
		if err := ctx.Err(); err != nil {
			// Surface where the run stopped, not just that it stopped: the
			// next activity that would have run and the progress made.
			return nil, fmt.Errorf("engine: run cancelled before node %d (%s) after %d rows: %w",
				id, n.Label(), rowsSoFar, err)
		}
		body := func() error {
			return e.execMaterializedNode(ctx, g, id, n, out, res, rm)
		}
		var err error
		if n.Kind == workflow.KindActivity {
			err = e.runNodeJournaled(ctx, id, n, rm, func() int { return len(out[id]) }, body)
		} else {
			err = e.runNode(ctx, id, n, body)
		}
		if err != nil {
			return nil, err
		}
		res.NodeRows[id] = len(out[id])
		rowsSoFar += len(out[id])
		rm.rows(id).Add(int64(len(out[id])))
	}
	return res, nil
}

// execMaterializedNode is one node's retryable body: fault checks frame
// the computation so every side effect — recording the output, loading a
// bound target — happens strictly after the node's last injection point,
// making a retried node idempotent from the outside.
func (e *Engine) execMaterializedNode(ctx context.Context, g *workflow.Graph, id workflow.NodeID, n *workflow.Node, out map[workflow.NodeID]data.Rows, res *RunResult, rm *runMetrics) error {
	if err := e.checkFault(ctx, fault.SiteNodeStart, id, n, 0); err != nil {
		return err
	}
	switch n.Kind {
	case workflow.KindRecordset:
		preds := g.Providers(id)
		if len(preds) == 0 {
			rows, err := e.scanSource(n)
			if err != nil {
				return err
			}
			if err := e.checkFault(ctx, fault.SiteEmit, id, n, 0); err != nil {
				return err
			}
			out[id] = rows
			return nil
		}
		rows := realign(out[preds[0]], g.Node(preds[0]).Out, n.RS.Schema)
		if err := e.checkFault(ctx, fault.SiteEmit, id, n, 0); err != nil {
			return err
		}
		out[id] = rows
		res.Targets[n.RS.Name] = rows
		if rs, ok := e.bindings[n.RS.Name]; ok {
			if err := rs.Load(rows); err != nil {
				return fmt.Errorf("engine: loading target %s: %w", n.RS.Name, err)
			}
		}
	case workflow.KindActivity:
		preds := g.Providers(id)
		inputs := make([]data.Rows, len(preds))
		schemas := make([]data.Schema, len(preds))
		for i, p := range preds {
			inputs[i] = out[p]
			schemas[i] = g.Node(p).Out
		}
		rows, err := e.execActivityTimed(id, n, schemas, inputs, rm)
		if err != nil {
			return fmt.Errorf("engine: activity %d (%s): %w", id, n.Label(), err)
		}
		if err := e.checkFault(ctx, fault.SiteEmit, id, n, 0); err != nil {
			return err
		}
		out[id] = rows
	}
	return nil
}

// execActivityTimed runs one activity, observing its latency into the
// per-node stage histogram and a per-node child span when either sink is
// enabled; with both off the clock is never read. The journal's node
// event is emitted by the caller after the node (retries included)
// succeeds, so a journal records one node event per completed node.
func (e *Engine) execActivityTimed(id workflow.NodeID, n *workflow.Node, schemas []data.Schema, inputs []data.Rows, rm *runMetrics) (data.Rows, error) {
	h := rm.latency(id)
	if h == nil && !rm.spanning() {
		return e.execActivity(n, schemas, inputs)
	}
	sp := rm.nodeSpan(id)
	start := time.Now()
	rows, err := e.execActivity(n, schemas, inputs)
	sec := time.Since(start).Seconds()
	sp.End()
	h.Observe(sec)
	return rows, err
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

// lookupCache is the run-scoped shared cache of materialized lookup
// tables and key sets: the first node, batch or partition to need a table
// builds it under the lock, every later request of the run gets the same
// read-only map. It lives for one run, so a lookup rebound or rewritten
// between runs is read again.
type lookupCache struct {
	mu     sync.Mutex
	tables map[string]map[string]data.Value
	sets   map[string]map[string]bool
}

func newLookupCache() *lookupCache {
	return &lookupCache{
		tables: make(map[string]map[string]data.Value),
		sets:   make(map[string]map[string]bool),
	}
}

func (c *lookupCache) table(name string, build func(string) (map[string]data.Value, error)) (map[string]data.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tables[name]; ok {
		return t, nil
	}
	t, err := build(name)
	if err != nil {
		return nil, err
	}
	c.tables[name] = t
	return t, nil
}

func (c *lookupCache) set(name string, build func(string) (map[string]bool, error)) (map[string]bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sets[name]; ok {
		return s, nil
	}
	s, err := build(name)
	if err != nil {
		return nil, err
	}
	c.sets[name] = s
	return s, nil
}

// withLookupCache returns a copy of the engine carrying a fresh lookup
// cache, which every run executes on. The copy shares the (read-only)
// bindings and metrics.
func (e *Engine) withLookupCache() *Engine {
	ec := *e
	ec.lookups = newLookupCache()
	return &ec
}

// lookupTable materializes a surrogate-key lookup binding as a map from
// production-key value to surrogate value. The lookup recordset's first
// attribute is the production key, its second the surrogate. The table is
// built once per run and shared read-only by every node, batch and
// partition that consults it.
func (e *Engine) lookupTable(name string) (map[string]data.Value, error) {
	return e.lookups.table(name, e.buildLookupTable)
}

func (e *Engine) buildLookupTable(name string) (map[string]data.Value, error) {
	rs, ok := e.bindings[name]
	if !ok {
		return nil, fmt.Errorf("lookup recordset %q not bound", name)
	}
	rows, err := rs.Scan()
	if err != nil {
		return nil, err
	}
	m := make(map[string]data.Value, len(rows))
	for _, r := range rows {
		if len(r) < 2 {
			return nil, fmt.Errorf("lookup %q: row %s has fewer than 2 attributes", name, r)
		}
		m[r[0].Key()] = r[1]
	}
	return m, nil
}

// keySet materializes a lookup binding as the set of its row keys (for
// lookup-based primary-key checks), once per run like lookupTable.
func (e *Engine) keySet(name string) (map[string]bool, error) {
	return e.lookups.set(name, e.buildKeySet)
}

func (e *Engine) buildKeySet(name string) (map[string]bool, error) {
	rs, ok := e.bindings[name]
	if !ok {
		return nil, fmt.Errorf("lookup recordset %q not bound", name)
	}
	rows, err := rs.Scan()
	if err != nil {
		return nil, err
	}
	m := make(map[string]bool, len(rows))
	for _, r := range rows {
		var key string
		for i, v := range r {
			if i > 0 {
				key += "\x1f"
			}
			key += v.Key()
		}
		m[key] = true
	}
	return m, nil
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
