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
// engine options (WithMode, WithPartitions, WithFaultPlan, WithRetry)
// configure Run and RunSuite; suite options (WithSuiteWorkers,
// WithSharedCache, WithSharedSpill) configure RunSuite; WithMetrics and
// WithJournal configure all three. Passing an option to the entry point it
// does not affect is harmless, so one option slice can serve a whole
// pipeline.
//
// Cancelling the context aborts the optimizer at the next state-expansion
// boundary and the engine at the next node, partition or batch boundary,
// returning an error wrapping ctx.Err().
package etl

import (
	"context"
	"fmt"

	"etlopt/internal/core"
	"etlopt/internal/cost"
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
	// CostModel prices workflow states; the default is the paper's
	// row-count model.
	CostModel = cost.Model
	// Mode selects the engine's execution strategy.
	Mode = engine.Mode
	// MetricsRegistry collects observability series (counters, gauges,
	// histograms) from the optimizer and the engine. Collection is
	// write-only: results are bit-identical with metrics on or off.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a MetricsRegistry,
	// serializable as JSON or Prometheus text.
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
	// FaultPlanOption refines a NewFaultPlan call (kind, latency, site
	// filter, per-key budget).
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
	// WithFaultLatency adds a context-aware sleep before each injected
	// failure, modeling slow-then-dead dependencies.
	WithFaultLatency = fault.WithLatency
	// WithFaultSites restricts injection to the listed sites.
	WithFaultSites = fault.WithSites
	// WithFaultMaxPerKey caps how often one (site, node, partition) key
	// may fire (default 1).
	WithFaultMaxPerKey = fault.WithMaxPerKey
)

// Execution modes for WithMode.
const (
	// Materialized evaluates nodes one at a time in topological order.
	Materialized = engine.Materialized
	// Parallel partitions every recordset across P workers (see
	// WithPartitions) and merges deterministically: target rows are
	// bit-identical to Materialized at any partition count.
	Parallel = engine.Parallel
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

	mode       Mode
	modeSet    bool
	partitions int
	metrics    *MetricsRegistry
	journal    *Journal
	profile    bool
	faultPlan  *FaultPlan
	retry      RetryPolicy

	suiteWorkers int
	cacheBytes   int64
	cacheSet     bool
	spillDir     string
}

// WithAlgorithm selects the optimization search (default HS). Optimize
// only.
func WithAlgorithm(a Algorithm) Option {
	return func(s *settings) { s.algo = a }
}

// WithModel prices states with a custom cost model (default: the paper's
// row-count model). Optimize only.
func WithModel(m CostModel) Option {
	return func(s *settings) { s.search.Model = m }
}

// WithMaxStates bounds the search's generated states (0 = package
// default). Optimize only.
func WithMaxStates(n int) Option {
	return func(s *settings) { s.search.MaxStates = n }
}

// WithGroupCap bounds HS's per-local-group exploration (0 = default).
// Optimize only.
func WithGroupCap(n int) Option {
	return func(s *settings) { s.search.GroupCap = n }
}

// WithWorkers sets the search's parallelism: 0 means GOMAXPROCS, 1 is
// fully sequential; results are identical for every value. Optimize only
// — the engine's parallelism is WithPartitions.
func WithWorkers(n int) Option {
	return func(s *settings) { s.search.Workers = n }
}

// WithMergeConstraints lists activity pairs that must move as one unit
// during the search (HS pre-processing; split again afterwards). Optimize
// only.
func WithMergeConstraints(pairs ...[2]NodeID) Option {
	return func(s *settings) { s.search.MergeConstraints = pairs }
}

// WithFullCostEval disables the semi-incremental cost evaluation and
// recomputes every state's cost from scratch. Results are identical;
// incremental is faster. Optimize only.
func WithFullCostEval() Option {
	return func(s *settings) { s.search.IncrementalCost = false }
}

// WithMetrics collects observability series into r — search series from
// Optimize, engine series from Run. etl.Metrics() supplies the
// package-wide default registry. Collection never affects results.
func WithMetrics(r *MetricsRegistry) Option {
	return func(s *settings) { s.metrics = r }
}

// WithJournal records the run's structured event stream into j — search
// transitions and phases from Optimize, node/batch/exchange events from
// Run. The caller owns j and closes it when the pipeline is done; one
// journal can span several Optimize and Run calls. Collection never
// affects results.
func WithJournal(j *Journal) Option {
	return func(s *settings) { s.journal = j }
}

// WithProfileLabels tags search workers and engine partitions with
// runtime/pprof labels (etl=search/engine, etl_worker, etl_node,
// etl_partition), so CPU profiles attribute samples per worker and per
// partition. Purely observational.
func WithProfileLabels() Option {
	return func(s *settings) { s.profile = true }
}

// WithMode selects the execution mode (default Materialized). Run only.
func WithMode(m Mode) Option {
	return func(s *settings) { s.mode = m; s.modeSet = true }
}

// WithPartitions sets the partition count for partition-parallel
// execution (default: the number of CPUs) and, unless WithMode is given
// explicitly, selects Parallel mode — etl.Run(ctx, g, bindings,
// etl.WithPartitions(8)) is a complete parallel run. Output is
// bit-identical at any count. Run only — the search's parallelism is
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

// WithSuiteWorkers bounds how many producer stages and residual workflows
// RunSuite executes concurrently; 0 or less means GOMAXPROCS. Each stage
// or workflow may still parallelize internally via WithPartitions. Results
// are identical at every worker count. RunSuite only.
func WithSuiteWorkers(n int) Option {
	return func(s *settings) { s.suiteWorkers = n }
}

// WithSharedCache sets RunSuite's intermediate-result cache budget in
// estimated bytes. The default is unbounded; 0 disables retention entirely
// (every shared intermediate is recomputed per consumer — or reloaded from
// disk under WithSharedSpill), and any budget in between evicts least
// recently used intermediates first. Workflow outputs are bit-identical at
// every budget. RunSuite only.
func WithSharedCache(bytes int64) Option {
	return func(s *settings) { s.cacheBytes = bytes; s.cacheSet = true }
}

// WithSharedSpill spills evicted shared intermediates to files under dir
// instead of dropping them, trading recomputation for disk reads when the
// cache budget is tight. The files are typed row files, so a value read
// back has the kind it was written with, and RunSuite removes them before
// it returns; dir itself stays. RunSuite only.
func WithSharedSpill(dir string) Option {
	return func(s *settings) { s.spillDir = dir }
}

// defaultMetrics is the package-level registry Metrics returns: the
// rendezvous point for applications that want one process-wide view of
// every Optimize and Run they route through it.
var defaultMetrics = obs.NewRegistry()

// Metrics returns the package's default metrics registry. Pass it to
// Optimize and Run via WithMetrics(etl.Metrics()), then export it with
// Snapshot():
//
//	snap := etl.Metrics().Snapshot()
//	snap.WriteJSON(os.Stdout)       // or snap.WritePrometheus(w)
//
// Applications that want isolated collection build their own registry
// with NewMetricsRegistry instead.
func Metrics() *MetricsRegistry { return defaultMetrics }

// NewMetricsRegistry returns a fresh, empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewJournal starts a flight-recorder journal writing JSONL to w. reg,
// when non-nil, mirrors the journal's own accounting (events written,
// dropped, write errors) as counters; nil skips the mirroring. Close the
// journal to flush it and append the summary trailer.
var NewJournal = obs.NewJournal

// NewJournalFile opens (creating or truncating) path and starts a
// journal on it; Close also closes the file.
var NewJournalFile = obs.NewJournalFile

// ReadJournal parses a JSONL journal stream back into events.
var ReadJournal = obs.ReadJournal

// ReadJournalFile parses a JSONL journal file back into events.
var ReadJournalFile = obs.ReadJournalFile

// NewFaultPlan builds a deterministic fault-injection plan from a seed
// and a per-occurrence firing rate in [0, 1]; see WithFaultPlan. The
// internal/fault package's options (kind, latency, site filter,
// per-key budget) refine it.
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
		search: core.Options{IncrementalCost: true},
		algo:   HS,
		mode:   Materialized,
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
	s.search.Metrics = s.metrics
	s.search.Journal = s.journal
	s.search.PprofLabels = s.profile
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
	return engine.New(bindings, s.engineOptions()...).Run(ctx, g)
}

// engineOptions lowers the merged settings to the internal engine's option
// vocabulary — the single translation Run and RunSuite share.
func (s *settings) engineOptions() []engine.Option {
	if s.partitions > 0 && !s.modeSet {
		s.mode = Parallel
	}
	eopts := []engine.Option{engine.WithMode(s.mode)}
	if s.partitions > 0 {
		eopts = append(eopts, engine.WithPartitions(s.partitions))
	}
	if s.metrics != nil {
		eopts = append(eopts, engine.WithMetrics(s.metrics))
	}
	if s.journal != nil {
		eopts = append(eopts, engine.WithJournal(s.journal))
	}
	if s.profile {
		eopts = append(eopts, engine.WithPprofLabels())
	}
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
// detected by content — a fingerprint over each node's transformation
// structure and its bound source data — materialized exactly once each
// through a content-addressed cache, and every workflow runs as a residual
// graph over those shared intermediates. Each member's Targets and
// NodeRows are bit-identical to an individual Run at any suite-worker
// count, cache budget and partition count.
//
// RunSuite returns an error only when planning fails (an invalid graph or
// an unbound source). Execution failures are isolated per workflow in the
// result: a failing shared stage fails every workflow consuming it — each
// with the same error — and no others.
//
// WithSuiteWorkers, WithSharedCache and WithSharedSpill configure the
// suite; engine options (WithMode, WithPartitions, WithFaultPlan, …) apply
// to every stage and residual run; WithMetrics and WithJournal also
// receive the shared cache's activity.
func RunSuite(ctx context.Context, workflows []SuiteWorkflow, opts ...Option) (*SuiteResult, error) {
	s := newSettings(opts)
	cacheBytes := int64(-1)
	if s.cacheSet {
		cacheBytes = s.cacheBytes
	}
	return share.RunSuite(ctx, workflows, share.Options{
		Workers:    s.suiteWorkers,
		CacheBytes: cacheBytes,
		SpillDir:   s.spillDir,
		Engine:     s.engineOptions(),
		Journal:    s.journal,
		Metrics:    s.metrics,
	})
}

// VerifyEmpirical executes both workflows on the same bound input and
// reports whether every target received the same record multiset — the
// paper's empirical equivalence oracle (§2.2). The returned string
// describes the first divergence, if any.
func VerifyEmpirical(g1, g2 *Graph, bindings map[string]Recordset) (bool, string, error) {
	return equiv.VerifyEmpirical(g1, g2, bindings)
}
