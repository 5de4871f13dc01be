// Package analysis is the static-analysis layer of the ETL optimizer —
// the verification counterpart of the paper's correctness story (§4):
// every optimization is supposed to be semantics-preserving, and this
// package states the design-time conditions a second time, outside the
// optimizer, checkable without executing data.
//
// Three kinds of passes share one finding model and one pass table:
//
//   - workflow passes read one analysis context per graph — schemata, the
//     abstract interpreter's states, attribute liveness — for reference
//     names a join collapses, attributes produced but never consumed,
//     auxiliary-schema coverage gaps, and proofs about guards,
//     provenance and cardinality, on a graph Graph.CheckWellFormed
//     accepts (what it refuses, CheckWorkflow refuses);
//   - trace passes re-verify a recorded optimization run offline: every
//     transition in a core.Result trace is replayed, its applicability
//     guard re-run and its signature/cost chain validated, certifying
//     the run;
//   - source passes lint the optimizer's own Go sources with go/ast and
//     go/types, protecting the determinism invariants the parallel
//     search depends on (no order-sensitive map iteration, no wall-clock
//     or entropy in search paths).
//
// Findings carry a severity, a check name, a location (graph node,
// trace step or source position) and a suggested fix. Warnings fail CI;
// advice does not — the exit-code semantics every CLI shares.
package analysis

import (
	"fmt"
	"sort"

	"etlopt/internal/workflow"
)

// Severity grades a finding. The scale and its exit-code meaning are
// shared by every CLI: warnings exit nonzero, advice does not.
type Severity uint8

// Severities.
const (
	// Warning marks likely mistakes: wrong results, run-time failures,
	// broken invariants. CI fails on warnings.
	Warning Severity = iota
	// Advice marks inefficiencies or style issues the tools cannot prove
	// harmful.
	Advice
)

// String returns the severity's name.
func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "advice"
}

// Finding is one analysis result.
type Finding struct {
	Severity Severity
	// Check names the rule, e.g. "dead-filter".
	Check string
	// Node anchors the finding to a workflow graph node; -1 when the
	// finding is not graph-anchored (workflow-level, trace or source).
	Node workflow.NodeID
	// Where locates non-graph findings: a trace step ("step 3 SWA(5,6)")
	// or a source position ("core.go:42:7"). Empty for graph findings.
	Where   string
	Message string
	// Fix suggests a remedy; may be empty.
	Fix string
	// File is the machine-readable artifact location: a module-relative Go
	// source path for source findings, or the analyzed workflow/trace file
	// as set by the CLI. Empty when no artifact applies. Line and Col are
	// 1-based and 0 when unknown.
	File string
	Line int
	Col  int
}

// String renders the finding.
func (f Finding) String() string {
	loc := ""
	switch {
	case f.Node >= 0:
		loc = fmt.Sprintf(" node %d", f.Node)
	case f.Where != "":
		loc = " " + f.Where
	}
	msg := fmt.Sprintf("%s [%s]%s: %s", f.Severity, f.Check, loc, f.Message)
	if f.Fix != "" {
		msg += " (fix: " + f.Fix + ")"
	}
	return msg
}

// Sort orders findings deterministically: by check name, then location
// (node, then textual location), then message. CI diffs stay stable.
func Sort(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Where != b.Where {
			return a.Where < b.Where
		}
		return a.Message < b.Message
	})
}

// CountWarnings returns the number of warning-severity findings.
func CountWarnings(fs []Finding) int {
	n := 0
	for _, f := range fs {
		if f.Severity == Warning {
			n++
		}
	}
	return n
}

// WorkflowOptions tunes the workflow pass family. The zero value is not
// meaningful; use DefaultWorkflowOptions as the base.
type WorkflowOptions struct {
	// CardinalityBound is the blowup factor of the cardinality-blowup
	// pass: a node whose statically estimated row interval exceeds
	// CardinalityBound × (total source rows) is flagged.
	CardinalityBound float64
}

// DefaultWorkflowOptions returns the default tuning: cardinality blowups
// flagged beyond 10× the total source rows.
func DefaultWorkflowOptions() *WorkflowOptions {
	return &WorkflowOptions{CardinalityBound: 10}
}

// Pass is one row of the pass table: a named check with the function of
// its kind set.
type Pass struct {
	Name, Doc string

	workflow func(*flow) []Finding          // one analysed graph
	trace    func(*StepInfo) []Finding      // one replayed step, or the run summary (Index == -1)
	source   func(*SourcePackage) []Finding // one type-checked package
}

// Kind names what the pass inspects: "workflow", "trace" or "src".
func (p Pass) Kind() string {
	switch {
	case p.workflow != nil:
		return "workflow"
	case p.trace != nil:
		return "trace"
	default:
		return "src"
	}
}

// passes is every check etlvet runs, in the order `etlvet passes` lists
// them: by kind, then by name. The rule for the
// table is TestKillTable's: a pass stays only while a seeded defect exists
// that it reports and no other pass does; a pass without one is deleted.
var passes = []Pass{
	{Name: "aux-schema-gap", workflow: auxSchemaGaps,
		Doc: "auxiliary schemata (Fun/Gen/PrjOut) that under-cover the activity's semantics"},
	{Name: "broken-provenance", workflow: brokenProvenance,
		Doc: "target columns no source attribute's value can reach"},
	{Name: "cardinality-blowup", workflow: cardinalityBlowups,
		Doc: "nodes whose estimated cardinality exceeds the configured multiple of the source rows"},
	{Name: "dead-attribute", workflow: deadAttributes,
		Doc: "source attributes nothing reads and no target stores"},
	{Name: "dead-filter", workflow: deadFilters,
		Doc: "filters and guards the abstract domains prove pass every row"},
	{Name: "dead-generation", workflow: deadGenerations,
		Doc: "attributes generated but never consumed by any activity or target"},
	{Name: "late-projection", workflow: lateProjections,
		Doc: "projections whose dropped attributes died far upstream"},
	{Name: "redundant-activity", workflow: redundantActivities,
		Doc: "directly repeated activities with identical semantics"},
	{Name: "selectivity-range", workflow: selectivityRanges,
		Doc: "selectivity estimates the cost model cannot price"},
	{Name: "shadowed-reference", workflow: shadowedReferences,
		Doc: "join inputs that share a non-key attribute"},
	{Name: "unguarded-surrogate-key", workflow: unprotectedLookups,
		Doc: "surrogate-key lookups without an upstream not-null guard"},
	{Name: "unsatisfiable-guard", workflow: unsatisfiableGuards,
		Doc: "guard predicates no row can satisfy given the upstream domains"},

	{Name: "trace-cost", trace: auditCost,
		Doc: "recorded costs must match re-evaluation, and the final cost must not exceed the initial"},
	{Name: "trace-guard", trace: auditGuard,
		Doc: "every recorded transition must pass its applicability guard when replayed"},
	{Name: "trace-signature", trace: auditSignature,
		Doc: "recorded state signatures must match the replayed states"},

	{Name: "map-iteration", source: checkMapIteration,
		Doc: "map iteration feeding an order-sensitive sink (append without sort, last-writer-wins assignment, float/string accumulation, counter-indexed store, channel send, early return)"},
	{Name: "randomness", source: checkRandomness,
		Doc: "global math/rand or crypto/rand draws are unseeded; use rand.New(rand.NewSource(seed))"},
	{Name: "wall-clock", source: checkWallClock,
		Doc: "time.Now outside the elapsed-time idiom makes results depend on when they run"},
}

// AllPasses returns the pass table.
func AllPasses() []Pass { return passes }

// CheckWorkflow runs every workflow pass over the graph and returns the
// sorted findings. The graph is cloned and its schemata regenerated
// first, so callers may pass freshly built workflows. Structural
// invalidity (dangling edges, cycles, an activity without its inputs) is
// an error, not a finding; so is anything Graph.CheckWellFormed refuses
// (a reference nothing delivers, a generated name already present, union
// branches or a target load that disagree), and so is a merged package:
// the checks read the split workflow a search returns.
func CheckWorkflow(g *workflow.Graph) ([]Finding, error) {
	return CheckWorkflowOpts(g, nil)
}

// CheckWorkflowOpts is CheckWorkflow with explicit pass options; a nil
// opts means DefaultWorkflowOptions.
func CheckWorkflowOpts(g *workflow.Graph, opts *WorkflowOptions) ([]Finding, error) {
	if opts == nil {
		opts = DefaultWorkflowOptions()
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	c := g.Clone()
	if err := c.RegenerateSchemata(); err != nil {
		return nil, err
	}
	if err := c.CheckWellFormed(); err != nil {
		return nil, err
	}
	fl, err := newFlow(c, opts)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, p := range passes {
		if p.workflow != nil {
			out = append(out, p.workflow(fl)...)
		}
	}
	Sort(out)
	return out, nil
}
