// Package etl is the public facade of the ETL workflow optimizer. It
// bundles the pieces an embedding application needs — building or parsing
// a workflow graph, optimizing it with the paper's state-space search
// (ES, HS, HS-Greedy), executing it over bound recordsets, and verifying
// that the optimized workflow is equivalent to the original — behind one
// import path, re-exporting the internal packages' types as aliases so
// values flow freely between the facade and any future exported
// subpackages.
//
// The two entry points are context-first and share one functional-options
// vocabulary:
//
//	res, err := etl.Optimize(ctx, g, etl.WithAlgorithm(etl.HS))
//	run, err := etl.Run(ctx, res.Best, bindings, etl.WithPartitions(8))
//
// A third entry point, RunSuite, executes several workflows as one job,
// computing shared upstream work once through a content-addressed
// intermediate-result cache:
//
//	suite, err := etl.RunSuite(ctx, workflows, etl.WithSharedCache(64<<20))
//
// Search options (WithAlgorithm, WithWorkers, …) configure Optimize;
// engine options (WithPartitions, WithFaultPlan, WithRetry) configure Run
// and RunSuite; suite options (WithSuiteWorkers,
// WithSharedCache, WithSharedSpill) configure RunSuite; WithJournal
// configures all three, and a journal opened with a registry
// (NewJournal(w, NewMetricsRegistry())) collects every layer's series in
// it. Passing an option to the entry point it does not affect is harmless,
// so one option slice can serve a whole pipeline.
//
// Cancelling the context aborts the optimizer at the next state-expansion
// boundary and the engine at the next node, partition or batch boundary,
// returning an error wrapping ctx.Err().
package etl

import (
	"context"
	"fmt"

	"etlopt/internal/core"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/equiv"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/share"
	"etlopt/internal/workflow"
)

// Re-exported types. These are aliases, not copies: a *etl.Graph is a
// *workflow.Graph, so graphs built here work with every part of the
// system and vice versa.
type (
	// Graph is a workflow: a DAG of recordset and activity nodes.
	Graph = workflow.Graph
	// NodeID identifies a node within a Graph.
	NodeID = workflow.NodeID
	// RecordsetRef declares a source or target recordset in a Graph.
	RecordsetRef = workflow.RecordsetRef
	// Activity is one transformation step (selection, function, join, …).
	Activity = workflow.Activity
	// Result reports an optimization run (best graph, costs, statistics).
	Result = core.Result
	// RunResult reports a workflow execution (target rows, node counts).
	RunResult = engine.RunResult
	// Recordset is the storage abstraction workflows read and load.
	//
	// An implementation's Digest is how RunSuite finds members reading the
	// same data without reading it: return a 64-bit name of the schema and
	// of everything Scan would return, such that two recordsets of your
	// type with equal digests Scan to equal rows, value for value and kind
	// for kind. Unequal digests promise nothing (the same rows are then
	// computed once per member, never wrongly), so a content version, a
	// hash of the stored bytes or data.Rows.Digest of the rows all serve;
	// fold in a constant of your own first, so that your digests do not
	// meet another type's. Fail only where Scan would refuse the recordset
	// as a whole. A wrapper that embeds a Recordset inherits its Digest,
	// which stays true as long as its Scan returns the embedded one's rows.
	Recordset = data.Recordset
	// MemoryRecordset is an in-memory Recordset, convenient for tests and
	// examples.
	MemoryRecordset = data.MemoryRecordset
	// Schema is an ordered attribute list.
	Schema = data.Schema
	// Record is one tuple; Rows is a slice of them.
	Record = data.Record
	// Rows is a multiset of records.
	Rows = data.Rows
	// Value is one typed attribute value.
	Value = data.Value
	// MetricsRegistry collects observability series (counters, gauges,
	// histograms) from the optimizer and the engine. Collection is
	// write-only: results are bit-identical with metrics on or off.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a MetricsRegistry,
	// serializable as JSON.
	MetricsSnapshot = obs.Snapshot
	// Journal is the flight recorder: a bounded, lossy, structured JSONL
	// run journal of search transitions, executed nodes, partition
	// batches and checkpoint steps. Like metrics, collection is
	// write-only: results are bit-identical with the journal on or off.
	Journal = obs.Journal
	// JournalEvent is one journal record; all event types share this flat
	// shape.
	JournalEvent = obs.Event
	// FaultPlan is a deterministic fault-injection schedule: a pure
	// function of (seed, injection site, node, partition, occurrence), so
	// the same plan replays the same failures on every run. Build one
	// with NewFaultPlan and arm it via WithFaultPlan.
	FaultPlan = fault.Plan
	// FaultInjected is the typed error an armed FaultPlan returns, naming
	// the injection site, node, partition and occurrence.
	FaultInjected = fault.Injected
	// RetryPolicy bounds per-node retries of transient failures with
	// capped, deterministically jittered exponential backoff. Arm it via
	// WithRetry.
	RetryPolicy = fault.Policy
	// FaultPlanOption refines a NewFaultPlan call: WithFaultKind,
	// WithFaultSites.
	FaultPlanOption = fault.PlanOption
	// FaultKind distinguishes transient (retryable) from permanent
	// injected faults.
	FaultKind = fault.Kind
	// SuiteWorkflow is one member of a RunSuite job: a named graph plus
	// its recordset bindings.
	SuiteWorkflow = share.Workflow
	// SuiteResult reports a RunSuite job: per-workflow outcomes in input
	// order plus suite-level sharing statistics.
	SuiteResult = share.Result
	// SuiteWorkflowResult is one workflow's outcome within a SuiteResult;
	// exactly one of Result and Err is set.
	SuiteWorkflowResult = share.WorkflowResult
	// SuiteStats summarizes what sharing bought: stage and node accounting
	// plus the shared cache's byte-level counters.
	SuiteStats = share.Stats
	// SharedCacheStats is the shared intermediate-result cache's cumulative
	// accounting.
	SharedCacheStats = share.CacheStats
)

// Fault kinds for WithFaultKind.
const (
	// FaultTransient faults succeed on retry — the default kind.
	FaultTransient = fault.Transient
	// FaultPermanent faults fail the run regardless of retry budget.
	FaultPermanent = fault.Permanent
)

// FaultPlan refinements, passed to NewFaultPlan.
var (
	// WithFaultKind sets the kind of every injected fault.
	WithFaultKind = fault.WithKind
	// WithFaultSites restricts injection to the listed sites.
	WithFaultSites = fault.WithSites
)

// Null is the SQL-style null Value.
var Null = data.Null

// Value constructors.
var (
	// NewInt wraps an int64 as a Value.
	NewInt = data.NewInt
	// NewFloat wraps a float64 as a Value.
	NewFloat = data.NewFloat
	// NewString wraps a string as a Value.
	NewString = data.NewString
	// NewBool wraps a bool as a Value.
	NewBool = data.NewBool
)

// Option configures Optimize, Run and/or RunSuite. Options are built with
// the package's With… constructors.
type Option func(*settings)

// settings is the merged configuration of one Optimize or Run call.
type settings struct {
	search core.Options
	algo   Algorithm

	partitions int
	journal    *Journal
	faultPlan  *FaultPlan
	retry      RetryPolicy

	suiteWorkers int
	cacheBytes   int64
	spillDir     string
}

// WithAlgorithm selects the optimization search (default HS). Optimize
// only.
func WithAlgorithm(a Algorithm) Option {
	return func(s *settings) { s.algo = a }
}

// WithMaxStates bounds the search's generated states (0 = package
// default). Optimize only.
func WithMaxStates(n int) Option {
	return func(s *settings) { s.search.MaxStates = n }
}

// WithWorkers sets the search's parallelism: 0 means GOMAXPROCS, 1 is
// fully sequential; results are identical for every value. Optimize only
// — the engine's parallelism is WithPartitions.
func WithWorkers(n int) Option {
	return func(s *settings) { s.search.Workers = n }
}

// WithJournal records the run's structured event stream into j — search
// transitions and phases from Optimize, node/batch/exchange events from
// Run, shared-cache activity from RunSuite — and every layer's series
// into the registry j was opened with, whose snapshot j's trailer
// carries. The caller owns j and closes it when the pipeline is done; one
// journal can span several Optimize, Run and RunSuite calls. Collection
// never affects results.
func WithJournal(j *Journal) Option {
	return func(s *settings) { s.journal = j }
}

// WithPartitions runs the workflow partition-parallel over n partitions:
// every recordset is split across n workers and merged deterministically,
// so etl.Run(ctx, g, bindings, etl.WithPartitions(8)) is a complete
// parallel run whose output is bit-identical to the default run, which
// evaluates the graph stage by stage in one partition. n <= 0 runs
// runtime.GOMAXPROCS(0) partitions. Run only — the search's parallelism is
// WithWorkers.
func WithPartitions(n int) Option {
	return func(s *settings) { s.partitions = n }
}

// WithFaultPlan arms deterministic fault injection on the run: the plan
// decides, as a pure function of its seed and each injection site, which
// node starts, batch emits, repartition exchanges and checkpoint steps
// fail. Pair it with WithRetry to exercise recovery; without a retry
// policy every injected fault surfaces as a *FaultInjected error. Run
// only.
func WithFaultPlan(p *FaultPlan) Option {
	return func(s *settings) { s.faultPlan = p }
}

// WithRetry re-runs transiently failed nodes under the policy's attempt
// budget and capped, deterministically jittered exponential backoff.
// Permanent faults and context cancellation are never retried. Run only.
func WithRetry(p RetryPolicy) Option {
	return func(s *settings) { s.retry = p }
}

// WithSuiteWorkers bounds how many producer and member runs RunSuite
// executes concurrently; 0 or less means GOMAXPROCS. Each run may still
// parallelize internally via WithPartitions. Results are identical at
// every worker count. RunSuite only.
func WithSuiteWorkers(n int) Option {
	return func(s *settings) { s.suiteWorkers = n }
}

// WithSharedCache bounds, in estimated bytes, the shared intermediates
// RunSuite holds in memory. The default is unbounded; a stage that does not
// fit beside those held is spilled to a file as it is made (0 holds none)
// and read back from it, so no stage is computed twice. Each is released
// after its last reader. Workflow outputs are bit-identical at every
// budget. RunSuite only.
func WithSharedCache(bytes int64) Option {
	return func(s *settings) { s.cacheBytes = bytes }
}

// WithSharedSpill puts the files of a bounded WithSharedCache under dir
// instead of os.TempDir(). The files are typed row files, so a value read
// back has the kind it was written with, and RunSuite removes them before
// it returns; dir itself stays. RunSuite only.
func WithSharedSpill(dir string) Option {
	return func(s *settings) { s.spillDir = dir }
}

// NewMetricsRegistry returns a fresh, empty metrics registry. Open a
// journal with it and pass the journal to Optimize, Run and RunSuite via
// WithJournal; the journal's trailer carries its snapshot, and Snapshot()
// exports it at any time:
//
//	reg := etl.NewMetricsRegistry()
//	j := etl.NewJournal(w, reg)
//	res, err := etl.Optimize(ctx, g, etl.WithJournal(j))
//	reg.Snapshot().WriteJSON(os.Stdout)
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewJournal starts a flight-recorder journal writing JSONL to w. reg,
// when non-nil, receives the series of every run recording into the
// journal and the journal's own accounting (events written, dropped,
// write errors) as counters, and its final snapshot is written into the
// summary trailer; nil skips all three. Close the journal to flush it
// and append the summary trailer.
var NewJournal = obs.NewJournal

// NewJournalFile opens (creating or truncating) path and starts a
// journal on it; Close also closes the file.
var NewJournalFile = obs.NewJournalFile

// ReadJournal parses a JSONL journal stream back into events.
var ReadJournal = obs.ReadJournal

// ReadJournalFile parses a JSONL journal file back into events.
var ReadJournalFile = obs.ReadJournalFile

// NewFaultPlan builds a deterministic fault-injection plan from a seed
// and a per-occurrence firing rate in [0, 1]; see WithFaultPlan.
// WithFaultKind and WithFaultSites refine it.
var NewFaultPlan = fault.NewPlan

// ParseFaultSpec parses the CLI-style "seed:rate" fault arming of etlrun
// into NewFaultPlan's arguments.
var ParseFaultSpec = fault.ParseSpec

// NewGraph returns an empty workflow graph.
func NewGraph() *Graph { return workflow.NewGraph() }

// NewMemoryRecordset returns an empty in-memory recordset.
func NewMemoryRecordset(name string, schema Schema) *MemoryRecordset {
	return data.NewMemoryRecordset(name, schema)
}

// Parse builds a Graph from the line-oriented workflow DSL (see
// internal/dsl: `recordset`, `activity` and `flow` directives).
func Parse(src string) (*Graph, error) { return dsl.Parse(src) }

// Serialize renders a Graph back into the DSL.
func Serialize(g *Graph) (string, error) { return dsl.Serialize(g) }

// Algorithm selects the optimization search.
type Algorithm string

// The three search algorithms of the paper (§4.2).
const (
	// ES is exhaustive search: the global optimum, exponential state
	// space — bound it with WithMaxStates.
	ES Algorithm = "es"
	// HS is the heuristic search of Fig. 7 — near-optimal at a fraction
	// of ES's cost; the default.
	HS Algorithm = "hs"
	// HSGreedy replaces HS's per-group exploration with hill-climbing —
	// fastest, may miss improvements on large workflows.
	HSGreedy Algorithm = "hs-greedy"
)

// newSettings resolves the option list over the package defaults.
func newSettings(opts []Option) settings {
	s := settings{
		search:     core.Options{IncrementalCost: true},
		algo:       HS,
		partitions: 1,
		cacheBytes: -1,
	}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s
}

// Optimize searches for the cheapest workflow equivalent to g and returns
// the best state found. A cancelled ctx aborts with an error wrapping
// ctx.Err(). Engine-only options are accepted and ignored, so one option
// slice can configure a whole optimize-then-run pipeline.
func Optimize(ctx context.Context, g *Graph, opts ...Option) (*Result, error) {
	s := newSettings(opts)
	s.search.Journal = s.journal
	switch s.algo {
	case ES:
		return core.Exhaustive(ctx, g, s.search)
	case HS, "":
		return core.Heuristic(ctx, g, s.search)
	case HSGreedy:
		return core.HSGreedy(ctx, g, s.search)
	default:
		return nil, fmt.Errorf("etl: unknown algorithm %q", s.algo)
	}
}

// Run executes the workflow against the bound recordsets: every source
// must be bound by name; bound targets receive the loaded rows. A
// cancelled ctx aborts with an error wrapping ctx.Err(). Search-only
// options are accepted and ignored.
func Run(ctx context.Context, g *Graph, bindings map[string]Recordset, opts ...Option) (*RunResult, error) {
	s := newSettings(opts)
	return engine.New(bindings, append(s.engineOptions(), engine.WithJournal(s.journal))...).Run(ctx, g)
}

// engineOptions lowers the merged settings to the internal engine's option
// vocabulary — the single translation Run and RunSuite share (RunSuite
// hands the journal to its engines itself).
func (s *settings) engineOptions() []engine.Option {
	eopts := []engine.Option{engine.WithPartitions(s.partitions)}
	if s.faultPlan != nil {
		eopts = append(eopts, engine.WithFaultPlan(s.faultPlan))
	}
	if s.retry.Enabled() {
		eopts = append(eopts, engine.WithRetry(s.retry))
	}
	return eopts
}

// RunSuite executes several workflows as one job: upstream closures that
// several workflows (or several branches of one workflow) share are
// detected by content — two nodes share exactly when their upstream
// closures, transformation structure and bound source data, are equal —
// materialized exactly once each through a cache keyed by that closure,
// and every workflow runs its own graph, restoring the shared
// intermediates it reads. Each member's Targets and
// NodeRows are bit-identical to an individual Run at any suite-worker
// count, cache budget and partition count.
//
// RunSuite returns an error only when its spill directory cannot be made
// or planning fails (an invalid graph or an unbound source), and then runs
// nothing. Execution failures are isolated per workflow in the
// result: a failing shared stage fails every workflow consuming it — each
// with the same error — and no others.
//
// WithSuiteWorkers, WithSharedCache and WithSharedSpill configure the
// suite; engine options (WithPartitions, WithFaultPlan, …) apply
// to every producer and member run; WithJournal also receives the shared
// cache's activity.
func RunSuite(ctx context.Context, workflows []SuiteWorkflow, opts ...Option) (*SuiteResult, error) {
	s := newSettings(opts)
	return share.RunSuite(ctx, workflows, share.Options{
		Workers:    s.suiteWorkers,
		CacheBytes: s.cacheBytes,
		SpillDir:   s.spillDir,
		Engine:     s.engineOptions(),
		Journal:    s.journal,
	})
}

// VerifyEmpirical executes both workflows on the same bound input and
// reports whether every target received the same record multiset — the
// paper's empirical equivalence oracle (§2.2). The returned string
// describes the first divergence, if any.
func VerifyEmpirical(g1, g2 *Graph, bindings map[string]Recordset) (bool, string, error) {
	return equiv.VerifyEmpirical(g1, g2, bindings)
}
