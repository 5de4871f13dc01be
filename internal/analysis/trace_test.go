package analysis

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// runTraced optimizes Fig. 1.
func runTraced(t *testing.T, algo string) (*core.Result, *workflow.Graph) {
	t.Helper()
	g := templates.Fig1Workflow()
	opts := core.Options{IncrementalCost: true}
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
	case "hs-merge":
		// Merge $2€ and A2E up front: the path gains a MER and its SPL.
		var pair [2]workflow.NodeID
		for _, id := range g.Activities() {
			if a := g.Node(id).Act; a.Sem.Op == workflow.OpFunc && a.Sem.DropArgs {
				pair[0] = id
			} else if a.Sem.Op == workflow.OpFunc && a.InPlace() {
				pair[1] = id
			}
		}
		opts.MergeConstraints = [][2]workflow.NodeID{pair}
		res, err = core.Heuristic(context.Background(), g, opts)
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
	for _, algo := range []string{"es", "hs", "greedy", "hs-merge"} {
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

// TestUntracedSearchCountsItsPath: a search run with default options
// records its derivation path, the auditor certifies it, and the
// path-step counters sum to its length.
func TestUntracedSearchCountsItsPath(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 20050405))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	j := obs.NewJournal(io.Discard, reg)
	res, err := core.Heuristic(context.Background(), sc.Graph, core.Options{Journal: j})
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	fs := mustAudit(t, mustTrace(t, res, sc.Graph))
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
	if sum := pathStepSum(t, reg.Snapshot()); sum != int64(len(res.Steps)) || sum == 0 {
		t.Errorf("path-step counters sum to %d, Result.Steps has %d steps; want equal and > 0", sum, len(res.Steps))
	}
}

// TestEverySearchRecordsAnAuditablePath: ES, HS and HS-Greedy with
// default options but a 5000-state budget, on small and medium generator
// workflows, each return a path the auditor certifies, the same path at 1
// and 4 workers, and path-step counters that sum to its length.
func TestEverySearchRecordsAnAuditablePath(t *testing.T) {
	searches := map[string]func(context.Context, *workflow.Graph, core.Options) (*core.Result, error){
		"ES": core.Exhaustive, "HS": core.Heuristic, "HS-Greedy": core.HSGreedy,
	}
	var scs []*templates.Scenario
	for _, cat := range []generator.Category{generator.Small, generator.Medium} {
		suite, err := generator.Suite(cat, 3, 4040)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, suite...)
	}
	for i, sc := range scs {
		for name, search := range searches {
			t.Run(fmt.Sprintf("%d/%s", i, name), func(t *testing.T) {
				var first []core.TraceStep
				for _, workers := range []int{1, 4} {
					reg := obs.NewRegistry()
					j := obs.NewJournal(io.Discard, reg)
					res, err := search(context.Background(), sc.Graph, core.Options{MaxStates: 5000, Workers: workers, Journal: j})
					j.Close()
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range mustAudit(t, mustTrace(t, res, sc.Graph)) {
						t.Errorf("workers=%d: unexpected finding: %s", workers, f)
					}
					if sum := pathStepSum(t, reg.Snapshot()); sum != int64(len(res.Steps)) {
						t.Errorf("workers=%d: path-step counters sum to %d, Result.Steps has %d steps", workers, sum, len(res.Steps))
					}
					if workers == 1 {
						first = res.Steps
					} else if !reflect.DeepEqual(res.Steps, first) {
						t.Errorf("workers=4 recorded %d steps, workers=1 %d; paths differ", len(res.Steps), len(first))
					}
				}
			})
		}
	}
}

// pathStepSum adds up the search_path_steps_total series of a snapshot.
func pathStepSum(t *testing.T, snap obs.Snapshot) int64 {
	t.Helper()
	var sum int64
	for _, op := range []string{"SWA", "FAC", "DIS", "MER", "SPL"} {
		v, _ := snap.CounterValue(`search_path_steps_total{op="` + op + `"}`)
		sum += v
	}
	return sum
}
