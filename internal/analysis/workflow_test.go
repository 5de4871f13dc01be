package analysis

import (
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// pipe builds S(schema) -> acts... -> T(tgtSchema); CheckWorkflow derives
// the schemata.
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

// TestCheckWorkflowRefusesIllFormed: what Graph.CheckWellFormed refuses —
// a reference nothing delivers, a target load that disagrees with its
// target, union branches that disagree, a generated name already flowing
// in — CheckWorkflow refuses too, with an error naming the activity or
// target, on graphs built in code that never went through dsl.Parse.
func TestCheckWorkflowRefusesIllFormed(t *testing.T) {
	kv := data.Schema{"K", "V"}
	union := workflow.NewGraph()
	s1 := union.AddRecordset(&workflow.RecordsetRef{Name: "S1", Schema: kv, Rows: 100, IsSource: true})
	s2 := union.AddRecordset(&workflow.RecordsetRef{Name: "S2", Schema: data.Schema{"K", "W"}, Rows: 100, IsSource: true})
	u := union.AddActivity(templates.Union())
	tgt := union.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: kv, IsTarget: true})
	union.MustAddEdge(s1, u)
	union.MustAddEdge(s2, u)
	union.MustAddEdge(u, tgt)
	for _, c := range []struct {
		name string
		g    *workflow.Graph
		want string // "" names the graph's first activity
	}{
		{"reference nothing delivers", pipe(t, kv, kv, templates.Threshold("MISSING", 10, 0.5)), ""},
		{"target expects more", pipe(t, kv, data.Schema{"K", "V", "EXTRA"}, templates.Threshold("V", 10, 0.5)), "target T"},
		{"target stores less", pipe(t, kv, data.Schema{"K"}, templates.Threshold("V", 10, 0.5)), "target T"},
		{"union branches disagree", union, ""},
		// scale10 regenerates V from RAW while V already flows in: two
		// entities under one name.
		{"generated name shadows", pipe(t, data.Schema{"K", "RAW", "V"}, data.Schema{"K", "RAW", "V"},
			templates.Convert("scale10", "V", "RAW")), ""},
		// The output schema still derives, the grouper simply absent from it.
		{"grouper nothing delivers", pipe(t, kv, data.Schema{"G", "TOT"},
			templates.Aggregate([]string{"G"}, workflow.AggSum, "V", "TOT", 0.4)), ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := c.want
			if want == "" {
				want = c.g.Node(c.g.Activities()[0]).Label()
			}
			if fs, err := CheckWorkflow(c.g); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("CheckWorkflow = %v, %v; want an error naming %q", fs, err, want)
			}
		})
	}
}

func TestDeadGeneration(t *testing.T) {
	// V2 is generated, never read, and projected out before the target.
	g := pipe(t, data.Schema{"K", "RAW"}, data.Schema{"K"},
		templates.Convert("scale10", "V2", "RAW"), templates.ProjectOut("V2"))
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "dead-generation", `"V2"`)

	// Stored by the target: not dead.
	g2 := pipe(t, data.Schema{"K", "RAW"}, data.Schema{"K", "V2"},
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
	g := pipe(t, data.Schema{"K", "RAW"}, data.Schema{"K", "V2"}, a)
	fs := mustCheckWorkflow(t, g)
	wantFinding(t, fs, "aux-schema-gap", `"V2"`)
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
	g := pipe(t, data.Schema{"K", "J", "V", "RAW", "BALLAST"}, data.Schema{"V", "SK", "SJ"},
		templates.Threshold("V", 10, 0.5),
		templates.Convert("scale10", "V2", "RAW"),
		templates.SurrogateKey("K", "SK", "LOOK"),
		templates.SurrogateKey("J", "SJ", "LOOK"),
		templates.ProjectOut("BALLAST", "V2"))
	fs := mustCheckWorkflow(t, g)
	if len(fs) < 4 {
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
