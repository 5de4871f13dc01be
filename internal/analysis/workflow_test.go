package analysis

import (
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// pipe builds S(schema) -> acts... -> T(tgtSchema) and regenerates.
func pipe(t *testing.T, schema, tgtSchema data.Schema, acts ...*workflow.Activity) *workflow.Graph {
	t.Helper()
	g := workflow.NewGraph()
	cur := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: schema, Rows: 100, IsSource: true})
	for _, a := range acts {
		id := g.AddActivity(a)
		g.MustAddEdge(cur, id)
		cur = id
	}
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: tgtSchema, IsTarget: true})
	g.MustAddEdge(cur, tgt)
	return g
}

func mustCheckWorkflow(t *testing.T, g *workflow.Graph) []Finding {
	t.Helper()
	fs, err := CheckWorkflow(g)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// wantFinding asserts exactly one finding of the check whose message
// contains the substring.
func wantFinding(t *testing.T, fs []Finding, check, substr string) {
	t.Helper()
	matched := 0
	for _, f := range byCheck(fs, check) {
		if strings.Contains(f.Message, substr) {
			matched++
		}
	}
	if matched != 1 {
		t.Errorf("want one %s finding mentioning %q, got %d in %v", check, substr, matched, fs)
	}
}

// TestCheckWorkflowRefusesMergedPackage: no check has a rule for a MER
// package, so Fig. 1 with $2€ and A2E merged is an error naming the
// package, and the split workflow checks clean of it.
func TestCheckWorkflowRefusesMergedPackage(t *testing.T) {
	g := templates.Fig1Workflow()
	var d2e, a2e workflow.NodeID
	for _, id := range g.Activities() {
		if a := g.Node(id).Act; a.Sem.Op == workflow.OpFunc && a.Sem.DropArgs {
			d2e = id
		} else if a.Sem.Op == workflow.OpFunc && a.InPlace() {
			a2e = id
		}
	}
	mer, err := transitions.Merge(g, d2e, a2e)
	if err != nil {
		t.Fatal(err)
	}
	pkg := mer.Graph.Node(mer.Dirty[0])
	if pkg.Act.Sem.Op != workflow.OpMerged {
		t.Fatalf("MER's dirty node is %s, not the package", pkg.Label())
	}
	if _, err := CheckWorkflow(mer.Graph); err == nil || !strings.Contains(err.Error(), pkg.Label()) {
		t.Errorf("CheckWorkflow on a merged package: err = %v, want one naming %q", err, pkg.Label())
	}
	split, _, err := transitions.SplitAll(mer.Graph)
	if err != nil {
		t.Fatal(err)
	}
	mustCheckWorkflow(t, split)
}

func TestUnresolvedReferenceMissingAttr(t *testing.T) {
	g := pipe(t, data.Schema{"K", "V"}, data.Schema{"K", "V"},
		templates.Threshold("MISSING", 10, 0.5))
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "unresolved-reference", `"MISSING"`)
}

func TestUnresolvedReferenceTargetMismatch(t *testing.T) {
	g := pipe(t, data.Schema{"K", "V"}, data.Schema{"K", "V", "EXTRA"},
		templates.Threshold("V", 10, 0.5))
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "unresolved-reference", `target T expects "EXTRA"`)

	g2 := pipe(t, data.Schema{"K", "V"}, data.Schema{"K"},
		templates.Threshold("V", 10, 0.5))
	fs2 := mustCheckWorkflow(t, g2)
	wantFinding(t, fs2, "unresolved-reference", `delivers "V"`)
}

func TestUnionBranchDisagreement(t *testing.T) {
	g := workflow.NewGraph()
	s1 := g.AddRecordset(&workflow.RecordsetRef{Name: "S1", Schema: data.Schema{"K", "V"}, Rows: 100, IsSource: true})
	s2 := g.AddRecordset(&workflow.RecordsetRef{Name: "S2", Schema: data.Schema{"K", "W"}, Rows: 100, IsSource: true})
	u := g.AddActivity(templates.Union())
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"K", "V"}, IsTarget: true})
	g.MustAddEdge(s1, u)
	g.MustAddEdge(s2, u)
	g.MustAddEdge(u, tgt)
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "unresolved-reference", `union branches disagree on "V"`)
	wantFinding(t, fs, "unresolved-reference", `union branches disagree on "W"`)
}

func TestShadowedReferenceFuncOutput(t *testing.T) {
	// scale10 regenerates V from RAW while V already flows in: two
	// entities under one name.
	g := pipe(t, data.Schema{"K", "RAW", "V"}, data.Schema{"K", "RAW", "V"},
		templates.Convert("scale10", "V", "RAW"))
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "shadowed-reference", `"V"`)
}

func TestDeadGeneration(t *testing.T) {
	// V2 is generated, never read, and the target does not store it.
	g := pipe(t, data.Schema{"K", "RAW"}, data.Schema{"K", "RAW"},
		templates.Convert("scale10", "V2", "RAW"))
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "dead-generation", `"V2"`)

	// Stored by the target: not dead.
	g2 := pipe(t, data.Schema{"K", "RAW"}, data.Schema{"K", "RAW", "V2"},
		templates.Convert("scale10", "V2", "RAW"))
	fs2 := mustCheckWorkflow(t, g2)
	if n := len(byCheck(fs2, "dead-generation")); n != 0 {
		t.Errorf("stored generation flagged as dead: %v", fs2)
	}
}

func TestAuxSchemaGapUndeclaredParam(t *testing.T) {
	// A not-null whose functionality schema forgot the checked attribute:
	// the swap guards reason over Fun, so the gap breaks optimization.
	a := templates.NotNull(0.9, "V")
	a.Fun = data.Schema{}
	g := pipe(t, data.Schema{"K", "V"}, data.Schema{"K", "V"}, a)
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "aux-schema-gap", `"V"`)
}

func TestAuxSchemaGapUndeclaredGeneration(t *testing.T) {
	a := templates.Convert("scale10", "V2", "RAW")
	a.Gen = data.Schema{}
	g := pipe(t, data.Schema{"K", "RAW"}, data.Schema{"K", "RAW", "V2"}, a)
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "aux-schema-gap", `"V2"`)
}

func TestSchemaDerivationFailure(t *testing.T) {
	// An aggregation grouped on an attribute its input cannot deliver: the
	// output schema still derives (the grouper is simply absent from it),
	// and the dataflow passes name the attribute at both ends.
	g := pipe(t, data.Schema{"K", "V"}, data.Schema{"G", "TOT"},
		templates.Aggregate([]string{"G"}, workflow.AggSum, "V", "TOT", 0.4))
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "unresolved-reference", `functionality schema references "G"`)
	wantFinding(t, fs, "unresolved-reference", `target T expects "G"`)
}

// TestFig1WarningFree: the paper's own example stays free of warnings
// under the full extended pass suite (advice is fine).
func TestFig1WarningFree(t *testing.T) {
	fs := mustCheckWorkflow(t, templates.Fig1Workflow())
	for _, f := range fs {
		if f.Severity == Warning {
			t.Errorf("Fig. 1 warning: %s", f)
		}
	}
}

// TestFindingsSorted: CheckWorkflow returns findings in the documented
// deterministic order (check, then node, then message).
func TestFindingsSorted(t *testing.T) {
	// A workflow tripping several checks at several nodes.
	g := pipe(t, data.Schema{"K", "V", "BALLAST"}, data.Schema{"K", "V"},
		templates.Threshold("MISSING", 10, 0.5),
		templates.Convert("scale10", "V", "K"),
		templates.SurrogateKey("K", "SK", "LOOK"))
	fs := mustCheckWorkflow(t, g)
	if len(fs) < 3 {
		t.Fatalf("expected several findings, got %v", fs)
	}
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		if a.Check > b.Check ||
			(a.Check == b.Check && a.Node > b.Node) ||
			(a.Check == b.Check && a.Node == b.Node && a.Where == b.Where && a.Message > b.Message) {
			t.Errorf("findings out of order at %d: %v then %v", i, a, b)
		}
	}
}

// TestPassRegistry: the pass table is complete and in the order its
// readers rely on — by kind (workflow, trace, src), then by name.
func TestPassRegistry(t *testing.T) {
	kindOrder := map[string]int{"workflow": 0, "trace": 1, "src": 2}
	ps := AllPasses()
	for i, p := range ps {
		set := 0
		for _, ok := range []bool{p.workflow != nil, p.trace != nil, p.source != nil} {
			if ok {
				set++
			}
		}
		if p.Name == "" || p.Doc == "" || set != 1 {
			t.Errorf("pass %d %+v: want a name, a doc and exactly one function", i, p)
		}
		if i == 0 {
			continue
		}
		q := ps[i-1]
		if kindOrder[q.Kind()] > kindOrder[p.Kind()] || (q.Kind() == p.Kind() && q.Name >= p.Name) {
			t.Errorf("pass table out of order: %s %s before %s %s", q.Kind(), q.Name, p.Kind(), p.Name)
		}
	}
}
