package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/dsl"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// Trace is the serialized record of one optimization run: the initial
// workflow (as DSL text), the structured transition sequence the search
// applied on the path to the best state, and the signature/cost endpoints.
// Node IDs are deterministic — graph clones inherit the ID counter — so
// replaying Steps against a re-parse of Workflow reproduces the exact
// derivation, which is what AuditTrace certifies.
type Trace struct {
	// Algorithm names the search that produced the run (ES, HS, HS-Greedy).
	Algorithm string `json:"algorithm"`
	// Model names the cost model: "row" or "physical".
	Model string `json:"model"`
	// Workflow is the initial state S0 in the workflow definition format.
	Workflow string `json:"workflow"`
	// InitialSig and InitialCost identify S0.
	InitialSig  string  `json:"initial_sig"`
	InitialCost float64 `json:"initial_cost"`
	// FinalSig is the signature of the returned best state (merged
	// packages split); FinalCost is C(S_MIN), the cost of the best state
	// the search evaluated (MER/SPL never change a state's cost).
	FinalSig  string  `json:"final_sig"`
	FinalCost float64 `json:"final_cost"`
	// Steps is the transition sequence from S0 to the best state.
	Steps []core.TraceStep `json:"steps"`
}

// ModelName returns the trace-file name of a cost model.
func ModelName(m cost.Model) string {
	if _, ok := m.(cost.PhysicalModel); ok {
		return "physical"
	}
	return "row"
}

// modelByName resolves a trace-file model name.
func modelByName(name string) (cost.Model, error) {
	switch name {
	case "", "row":
		return cost.RowModel{}, nil
	case "physical":
		return cost.DefaultPhysicalModel(), nil
	default:
		return nil, fmt.Errorf("analysis: unknown cost model %q", name)
	}
}

// NewTrace assembles the trace of an optimization run. res must come
// from a run with Options.Trace enabled on the initial workflow g0 (after
// schema regeneration). The workflow is serialized through the DSL and
// the round-trip is verified — a workflow whose re-parse does not
// reproduce its node IDs cannot be replayed, and is reported here rather
// than as a spurious audit failure later.
func NewTrace(res *core.Result, g0 *workflow.Graph, model cost.Model) (*Trace, error) {
	if res.Steps == nil && res.Best.Signature() != g0.Signature() {
		return nil, fmt.Errorf("analysis: result carries no transition trace; run the search with Options.Trace")
	}
	src, err := dsl.Serialize(g0)
	if err != nil {
		return nil, fmt.Errorf("analysis: serializing initial workflow: %w", err)
	}
	rt, err := dsl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("analysis: initial workflow does not re-parse: %w", err)
	}
	if err := rt.RegenerateSchemata(); err != nil {
		return nil, fmt.Errorf("analysis: re-parsed workflow: %w", err)
	}
	if rt.Signature() != g0.Signature() {
		return nil, fmt.Errorf("analysis: workflow does not round-trip through the DSL (signature %q re-parses as %q); trace would not be replayable",
			g0.Signature(), rt.Signature())
	}
	return &Trace{
		Algorithm:   res.Algorithm,
		Model:       ModelName(model),
		Workflow:    src,
		InitialSig:  g0.Signature(),
		InitialCost: res.InitialCost,
		FinalSig:    res.Best.Signature(),
		FinalCost:   res.BestCost,
		Steps:       res.Steps,
	}, nil
}

// Encode writes the trace as indented JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// DecodeTrace reads a JSON trace.
func DecodeTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("analysis: decoding trace: %w", err)
	}
	return &t, nil
}

// ReadTraceFile loads a trace from disk.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeTrace(f)
}

// StepInfo is what a trace pass sees: one replayed step (Index >= 0) or
// the run summary after the full replay (Index == -1).
type StepInfo struct {
	// Trace is the record under audit.
	Trace *Trace
	// Model is the resolved cost model.
	Model cost.Model
	// Index is the step's position in Trace.Steps, or -1 for the summary.
	Index int
	// Step is the recorded step (zero value at the summary).
	Step core.TraceStep
	// Cur is the replayed state after the step; at the summary, the final
	// replayed state. Nil when the transition could not be applied
	// (Err != nil).
	Cur *workflow.Graph
	// Err is the transition application error, if the replay's guard
	// re-check rejected the step.
	Err error
	// LastCost is the most recent recorded cost on the chain: InitialCost
	// until the first costed step, then that step's recorded cost, etc.
	LastCost float64
}

// Where locates the step for findings.
func (si *StepInfo) Where() string {
	if si.Index < 0 {
		return "summary"
	}
	if si.Step.Desc != "" {
		return fmt.Sprintf("step %d %s", si.Index, si.Step.Desc)
	}
	return fmt.Sprintf("step %d", si.Index)
}

func auditGuard(si *StepInfo) []Finding {
	if si.Index < 0 || si.Err == nil {
		return nil
	}
	return []Finding{{
		Severity: Warning, Check: "trace-guard", Node: -1, Where: si.Where(),
		Message: fmt.Sprintf("recorded transition is not applicable to the replayed state: %v", si.Err),
		Fix:     "the trace was corrupted or the optimizer applied an illegal rewrite; do not trust this run",
	}}
}

func auditSignature(si *StepInfo) []Finding {
	if si.Cur == nil {
		return nil
	}
	if si.Index < 0 {
		if got := si.Cur.Signature(); got != si.Trace.FinalSig {
			return []Finding{{
				Severity: Warning, Check: "trace-signature", Node: -1, Where: si.Where(),
				Message: fmt.Sprintf("replayed final state has signature %q, trace records %q", got, si.Trace.FinalSig),
			}}
		}
		return nil
	}
	if si.Step.Sig == "" {
		return nil // transient shift intermediate; signature not recorded
	}
	if got := si.Cur.Signature(); got != si.Step.Sig {
		return []Finding{{
			Severity: Warning, Check: "trace-signature", Node: -1, Where: si.Where(),
			Message: fmt.Sprintf("replayed state has signature %q, trace records %q", got, si.Step.Sig),
		}}
	}
	return nil
}

// costTolerance absorbs the float drift between full and semi-incremental
// evaluation orders; real corruption changes costs by whole rows.
const costTolerance = 1e-6

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= costTolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func auditCost(si *StepInfo) []Finding {
	if si.Cur == nil {
		return nil
	}
	if si.Index < 0 {
		var out []Finding
		if !closeTo(si.LastCost, si.Trace.FinalCost) {
			out = append(out, Finding{
				Severity: Warning, Check: "trace-cost", Node: -1, Where: si.Where(),
				Message: fmt.Sprintf("final cost %g does not match the last costed state on the chain (%g)", si.Trace.FinalCost, si.LastCost),
			})
		}
		if si.Trace.FinalCost > si.Trace.InitialCost && !closeTo(si.Trace.FinalCost, si.Trace.InitialCost) {
			out = append(out, Finding{
				Severity: Warning, Check: "trace-cost", Node: -1, Where: si.Where(),
				Message: fmt.Sprintf("cost monotonicity violated: final cost %g exceeds initial cost %g", si.Trace.FinalCost, si.Trace.InitialCost),
				Fix:     "the optimizer must never return a state worse than S0",
			})
		}
		return out
	}
	if !si.Step.Costed {
		return nil
	}
	c, err := cost.Evaluate(si.Cur, si.Model)
	if err != nil {
		return []Finding{{
			Severity: Warning, Check: "trace-cost", Node: -1, Where: si.Where(),
			Message: fmt.Sprintf("replayed state cannot be costed: %v", err),
		}}
	}
	if !closeTo(c.Total, si.Step.Cost) {
		return []Finding{{
			Severity: Warning, Check: "trace-cost", Node: -1, Where: si.Where(),
			Message: fmt.Sprintf("replayed state costs %g, trace records %g", c.Total, si.Step.Cost),
		}}
	}
	return nil
}

// appliedOf converts a recorded step back into a structural transition.
func appliedOf(stp core.TraceStep) (transitions.Applied, error) {
	a := transitions.Applied{Op: stp.Op, NArgs: len(stp.Args), Desc: stp.Desc}
	if len(stp.Args) > len(a.Args) {
		return a, fmt.Errorf("analysis: step %s records %d node arguments", stp.Op, len(stp.Args))
	}
	copy(a.Args[:], stp.Args)
	return a, nil
}

// AuditTrace statically re-verifies an optimization run: it re-parses the
// recorded initial workflow, replays every recorded transition — which
// re-runs the applicability guards — and runs every trace pass on each
// step and on the run summary, checking signature consistency, cost
// re-evaluation and monotonicity. Every replayed state is derived by the
// guarded transitions themselves, so it stays inside S0's equivalence
// class (§3.4) by the argument the optimizer itself rests on. A clean
// audit (no findings) certifies the run without executing any data. Malformed traces that cannot be
// replayed at all yield an error; verifiable-but-wrong traces yield
// findings.
func AuditTrace(t *Trace) ([]Finding, error) {
	g0, err := dsl.Parse(t.Workflow)
	if err != nil {
		return nil, fmt.Errorf("analysis: trace workflow does not parse: %w", err)
	}
	if err := g0.RegenerateSchemata(); err != nil {
		return nil, fmt.Errorf("analysis: trace workflow: %w", err)
	}
	if err := g0.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: trace workflow: %w", err)
	}
	model, err := modelByName(t.Model)
	if err != nil {
		return nil, err
	}

	var out []Finding
	if sig := g0.Signature(); sig != t.InitialSig {
		out = append(out, Finding{
			Severity: Warning, Check: "trace-signature", Node: -1, Where: "initial",
			Message: fmt.Sprintf("initial workflow has signature %q, trace records %q", sig, t.InitialSig),
		})
	}
	c0, err := cost.Evaluate(g0, model)
	if err != nil {
		return nil, fmt.Errorf("analysis: costing trace workflow: %w", err)
	}
	if !closeTo(c0.Total, t.InitialCost) {
		out = append(out, Finding{
			Severity: Warning, Check: "trace-cost", Node: -1, Where: "initial",
			Message: fmt.Sprintf("initial workflow costs %g, trace records %g", c0.Total, t.InitialCost),
		})
	}

	run := func(si *StepInfo) {
		for _, p := range passes {
			if p.trace != nil {
				out = append(out, p.trace(si)...)
			}
		}
	}

	prev := g0
	lastCost := c0.Total
	halted := false
	for i, stp := range t.Steps {
		si := &StepInfo{Trace: t, Model: model, Index: i, Step: stp, LastCost: lastCost}
		app, err := appliedOf(stp)
		if err == nil {
			var res *transitions.Result
			res, err = transitions.Apply(prev, app)
			if res != nil {
				si.Cur = res.Graph
			}
		}
		si.Err = err
		run(si)
		if si.Cur == nil {
			out = append(out, Finding{
				Severity: Warning, Check: "trace-guard", Node: -1, Where: si.Where(),
				Message: fmt.Sprintf("replay halted; %d subsequent step(s) and the final state were not verified", len(t.Steps)-i-1),
			})
			halted = true
			break
		}
		if stp.Costed {
			lastCost = stp.Cost
		}
		prev = si.Cur
	}
	if !halted {
		run(&StepInfo{Trace: t, Model: model, Index: -1, Cur: prev, LastCost: lastCost})
	}
	Sort(out)
	return out, nil
}
