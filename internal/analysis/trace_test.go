package analysis

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// runTraced optimizes Fig. 1 with tracing enabled.
func runTraced(t *testing.T, algo string) (*core.Result, *workflow.Graph) {
	t.Helper()
	g := templates.Fig1Workflow()
	opts := core.Options{IncrementalCost: true, Trace: true}
	var (
		res *core.Result
		err error
	)
	switch algo {
	case "es":
		res, err = core.Exhaustive(context.Background(), g, opts)
	case "hs":
		res, err = core.Heuristic(context.Background(), g, opts)
	case "greedy":
		res, err = core.HSGreedy(context.Background(), g, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

func mustTrace(t *testing.T, res *core.Result, g *workflow.Graph) *Trace {
	t.Helper()
	tr, err := NewTrace(res, g)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustAudit(t *testing.T, tr *Trace) []Finding {
	t.Helper()
	fs, err := AuditTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestAuditCertifiesFig1 is the acceptance check: a full HS run of the
// Fig. 1 workflow produces a trace the auditor certifies with zero
// findings, for every algorithm.
func TestAuditCertifiesFig1(t *testing.T) {
	for _, algo := range []string{"es", "hs", "greedy"} {
		t.Run(algo, func(t *testing.T) {
			res, g := runTraced(t, algo)
			if len(res.Steps) == 0 {
				t.Fatalf("%s found an improvement but recorded no steps", algo)
			}
			fs := mustAudit(t, mustTrace(t, res, g))
			for _, f := range fs {
				t.Errorf("unexpected finding: %s", f)
			}
		})
	}
}

// TestTraceRoundTripsJSON encodes and decodes the trace and re-audits.
func TestTraceRoundTripsJSON(t *testing.T) {
	res, g := runTraced(t, "hs")
	tr := mustTrace(t, res, g)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fs := mustAudit(t, tr2); len(fs) != 0 {
		t.Fatalf("re-decoded trace has findings: %v", fs)
	}
}

// corruptions hand-corrupt a certified trace one field at a time; each
// must be rejected with a finding from the right pass, located at the
// corrupted step.
func TestAuditRejectsCorruptedTrace(t *testing.T) {
	res, g := runTraced(t, "hs")
	base := mustTrace(t, res, g)

	copyTrace := func() *Trace {
		var buf bytes.Buffer
		if err := base.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err := DecodeTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	tests := []struct {
		name    string
		corrupt func(tr *Trace)
		check   string // pass that must fire
		where   string // substring of the finding location
	}{
		{
			name:    "cost",
			corrupt: func(tr *Trace) { tr.Steps[1].Cost = 1 },
			check:   "trace-cost",
			where:   "step 1",
		},
		{
			name:    "signature",
			corrupt: func(tr *Trace) { tr.Steps[0].Sig = "(bogus)" },
			check:   "trace-signature",
			where:   "step 0",
		},
		{
			name: "guard",
			corrupt: func(tr *Trace) {
				// Point the first transition at a recordset: no guard
				// accepts that, so the replay must halt with a finding.
				tr.Steps[0].Args = []workflow.NodeID{0, 1}
			},
			check: "trace-guard",
			where: "step 0",
		},
		{
			name:    "final cost",
			corrupt: func(tr *Trace) { tr.FinalCost = tr.InitialCost * 2 },
			check:   "trace-cost",
			where:   "summary",
		},
		{
			name:    "final signature",
			corrupt: func(tr *Trace) { tr.FinalSig = "(bogus)" },
			check:   "trace-signature",
			where:   "summary",
		},
		{
			name:    "initial signature",
			corrupt: func(tr *Trace) { tr.InitialSig = "(bogus)" },
			check:   "trace-signature",
			where:   "initial",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tr := copyTrace()
			tc.corrupt(tr)
			fs := mustAudit(t, tr)
			if CountWarnings(fs) == 0 {
				t.Fatalf("corrupted trace (%s) audited clean", tc.name)
			}
			found := false
			for _, f := range fs {
				if f.Check == tc.check && strings.Contains(f.Where, tc.where) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s finding located at %q; got: %v", tc.check, tc.where, fs)
			}
		})
	}
}

// TestAuditRejectsUnparsableWorkflow: malformed traces error out instead
// of auditing clean.
func TestAuditRejectsUnparsableWorkflow(t *testing.T) {
	res, g := runTraced(t, "hs")
	tr := mustTrace(t, res, g)
	tr.Workflow = "not a workflow"
	if _, err := AuditTrace(tr); err == nil {
		t.Fatal("audit of an unparsable workflow should error")
	}
}

// TestNewTraceRequiresTracing: a result produced without Options.Trace
// cannot be packaged as a trace when transitions were applied.
func TestNewTraceRequiresTracing(t *testing.T) {
	g := templates.Fig1Workflow()
	res, err := core.Heuristic(context.Background(), g, core.Options{IncrementalCost: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != nil {
		t.Fatalf("tracing off must record no steps, got %d", len(res.Steps))
	}
	if _, err := NewTrace(res, g); err == nil {
		t.Fatal("NewTrace should refuse a stepless improving result")
	}
}

// TestModelNameRoundTrips the name a trace records through the resolver,
// which refuses any other name — "physical" included, the name of a model
// that no longer exists.
func TestModelNameRoundTrips(t *testing.T) {
	tr, err := NewTrace(&core.Result{Best: templates.Fig1Workflow()}, templates.Fig1Workflow())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := modelByName(tr.Model); err != nil || got != (cost.RowModel{}) {
		t.Errorf("trace model %q resolves as %v, %v", tr.Model, got, err)
	}
	for _, name := range []string{"quantum", "physical"} {
		if _, err := modelByName(name); err == nil {
			t.Errorf("unknown model name %q should error", name)
		}
	}
}
