package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/cost"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// The kill table: one row per pass of the pass table, holding one seeded
// defect — a workflow, a corrupted step of a certified trace, or a function
// of the source fixture — that this pass reports and no other pass does,
// and beside it the nearest input without the defect, which the pass must
// leave alone. A pass without a row is deleted, not exempted.
//
// What else was run against each defect and stayed green is asserted here
// where it can be (a defective workflow parses, validates, derives its
// schemata, passes Graph.CheckWellFormed and is priced by the cost model
// without complaint: a defect the workflow layer already refuses justifies
// no pass) and recorded
// in docs/runs/PR-27.txt where it cannot: the source defects were seeded
// into real packages and survived tier-1, `-race` and `-tags etldebug`.

// diagnosticsDir holds the committed example of every check that has one;
// a file there is named after the check it must produce and is that
// check's kill row.
const diagnosticsDir = "../../examples/workflows/diagnostics"

type killRow struct {
	pass string
	// defect and clean return the findings of the seeded defect and of its
	// boundary case. A nil defect means diagnosticsDir/<pass>.etl.
	defect, clean func(t *testing.T) []Finding
}

// chain renders S(schema) -> acts... -> T(target) in the workflow format.
func chain(schema, target string, acts ...string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "recordset S source rows=100 schema=%s\nrecordset T target schema=%s\n", schema, target)
	flow := "flow S"
	for i, a := range acts {
		fmt.Fprintf(&sb, "activity a%d %s\n", i+1, a)
		flow += fmt.Sprintf(" -> a%d", i+1)
	}
	return sb.String() + flow + " -> T\n"
}

// inWorkflow lints a workflow that every layer but the analyzer accepts.
func inWorkflow(src string) func(*testing.T) []Finding {
	return func(t *testing.T) []Finding {
		t.Helper()
		return inGraph(mustParse(t, src))(t)
	}
}

func inGraph(g *workflow.Graph) func(*testing.T) []Finding {
	return func(t *testing.T) []Finding {
		t.Helper()
		c := g.Clone()
		if err := c.Validate(); err != nil {
			t.Fatalf("the workflow layer already refuses the input: %v", err)
		}
		if err := c.RegenerateSchemata(); err != nil {
			t.Fatalf("schema derivation already refuses the input: %v", err)
		}
		if err := c.CheckWellFormed(); err != nil {
			t.Fatalf("the workflow layer already refuses the input as ill-formed: %v", err)
		}
		if _, err := cost.Evaluate(c, cost.RowModel{}); err != nil {
			t.Fatalf("the cost model already refuses the input: %v", err)
		}
		return mustCheckWorkflow(t, g)
	}
}

func inFile(path string) func(*testing.T) []Finding {
	return func(t *testing.T) []Finding {
		t.Helper()
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return inWorkflow(string(src))(t)
	}
}

// inTrace audits a certified HS trace of Fig. 1 after corrupt has edited it.
func inTrace(corrupt func(*Trace)) func(*testing.T) []Finding {
	return func(t *testing.T) []Finding {
		t.Helper()
		res, g := runTraced(t, "hs")
		tr := mustTrace(t, res, g)
		corrupt(tr)
		return mustAudit(t, tr)
	}
}

// inFixture returns the source findings located inside one function of
// testdata/src/fixture.
func inFixture(fn string) func(*testing.T) []Finding {
	return func(t *testing.T) []Finding {
		t.Helper()
		lines := mustReadFixture(t)
		var out []Finding
		for _, f := range fixtureFindings(t) {
			if enclosingFixtureFunc(lines, f.Where) == fn {
				out = append(out, f)
			}
		}
		return out
	}
}

// built is S(K,V) -> a -> T(K,V) assembled through the API, for the defect
// the workflow format cannot spell: it has no syntax for an auxiliary
// schema that disagrees with the operation.
func built(a *workflow.Activity) *workflow.Graph {
	g := workflow.NewGraph()
	s := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"K", "V"}, Rows: 100, IsSource: true})
	id := g.AddActivity(a)
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"K", "V"}, IsTarget: true})
	g.MustAddEdge(s, id)
	g.MustAddEdge(id, tgt)
	return g
}

func notNullWithFun(fun data.Schema) *workflow.Activity {
	a := templates.NotNull(0.9, "V")
	a.Fun = fun
	return a
}

// crossBranch is the reproducer late-projection got wrong while it
// measured distance in topological positions: p1 stands directly after
// A's only reader, and only the other branch's nodes sort between them.
const crossBranch = `
recordset S1 source rows=100 schema=KEY,A,V
recordset S2 source rows=100 schema=KEY,V
recordset T target schema=KEY,V
activity f1 filter pred="(A>=1)" sel=0.5
activity n1 notnull attrs=V sel=0.9
activity n2 filter pred="(V>=1)" sel=0.9
activity n3 filter pred="(V>=2)" sel=0.9
activity n4 filter pred="(V>=3)" sel=0.9
activity p1 project attrs=A
activity u union
flow S1 -> f1 -> p1 -> u
flow S2 -> n1 -> n2 -> n3 -> n4 -> u
flow u -> T
`

const selectiveJoin = `
recordset L source rows=100 schema=KEY,V1
recordset R source rows=100 schema=KEY,V2
recordset T target schema=KEY,V1,V2
activity j join keys=KEY sel=0.01
flow L -> j
flow R -> j
flow j -> T
`

var killTable = []killRow{
	{pass: "aux-schema-gap",
		defect: inGraph(built(notNullWithFun(data.Schema{}))),
		clean:  inGraph(built(notNullWithFun(data.Schema{"V"})))},
	{pass: "broken-provenance",
		clean: inWorkflow(chain("KEY,V", "KEY,TOTAL", `aggregate group=KEY fn=sum attr=V out=TOTAL sel=0.1`))},
	{pass: "cardinality-blowup",
		clean: inWorkflow(selectiveJoin)},
	{pass: "dead-attribute", // the aggregate drops JUNK without a word
		defect: inWorkflow(chain("K,V,JUNK", "K,TOT", `aggregate group=K fn=sum attr=V out=TOT sel=0.4`)),
		clean:  inWorkflow(chain("K,V", "K,TOT", `aggregate group=K fn=sum attr=V out=TOT sel=0.4`))},
	{pass: "dead-filter",
		clean: inWorkflow(chain("KEY,V", "KEY,V", `filter pred="(V>=35)" sel=0.9`, `filter pred="(V>=117)" sel=0.5`))},
	{pass: "dead-generation",
		defect: inWorkflow(chain("K,RAW", "K,RAW", `apply fn=scale10 args=RAW out=V2`, `project attrs=V2`)),
		clean:  inWorkflow(chain("K,RAW", "K,RAW,V2", `apply fn=scale10 args=RAW out=V2`))},
	{pass: "late-projection", // X rides through three activities that never look at it
		defect: inWorkflow(chain("K,A,B,C,X", "K,A,B,C",
			`filter pred="(A>=1)" sel=0.5`, `filter pred="(B>=1)" sel=0.5`, `filter pred="(C>=1)" sel=0.5`, `project attrs=X`)),
		clean: inWorkflow(crossBranch)},
	{pass: "redundant-activity", // a repeat the interpreter has no proof about
		defect: inWorkflow(chain("K,V", "K,V", `distinct sel=0.9`, `distinct sel=0.9`)),
		clean:  inWorkflow(chain("K,V", "K,V", `distinct sel=0.9`))},
	{pass: "selectivity-range",
		defect: inWorkflow(chain("K,V", "K,V", `filter pred="(V>=1)" sel=1.5`)),
		clean:  inWorkflow(chain("K,V", "K,V", `filter pred="(V>=1)" sel=1`))},
	{pass: "shadowed-reference", // both inputs of the join bring their own V
		defect: inWorkflow(strings.NewReplacer("V1,V2", "V", "V1", "V", "V2", "V").Replace(selectiveJoin)),
		clean:  inWorkflow(selectiveJoin)},
	{pass: "unguarded-surrogate-key",
		defect: inWorkflow(chain("K,V", "V,SK", `sk key=K out=SK lookup=L`)),
		clean:  inWorkflow(chain("K,V", "V,SK", `notnull attrs=K sel=0.9`, `sk key=K out=SK lookup=L`))},
	{pass: "unsatisfiable-guard",
		clean: inWorkflow(chain("KEY,V", "KEY,V", `filter pred="(V>=117)" sel=0.5`, `filter pred="(V<500)" sel=0.3`))},

	{pass: "trace-cost",
		defect: inTrace(func(tr *Trace) { tr.Steps[1].Cost = 1 }),
		clean:  inTrace(func(*Trace) {})},
	{pass: "trace-guard", // no guard accepts a recordset as a transition argument
		defect: inTrace(func(tr *Trace) { tr.Steps[0].Args = []workflow.NodeID{0, 1} }),
		clean:  inTrace(func(*Trace) {})},
	{pass: "trace-signature",
		defect: inTrace(func(tr *Trace) { tr.Steps[0].Sig = "(bogus)" }),
		clean:  inTrace(func(*Trace) {})},

	{pass: "map-iteration", defect: inFixture("BadAppend"), clean: inFixture("GoodAppend")},
	{pass: "randomness", defect: inFixture("BadGlobalRand"), clean: inFixture("GoodSeededRand")},
	{pass: "wall-clock", defect: inFixture("BadWallClock"), clean: inFixture("GoodElapsed")},
}

func TestKillTable(t *testing.T) {
	// One row per pass, in table order; every committed diagnostics example
	// is the row of the check it is named after.
	ps := AllPasses()
	if len(killTable) != len(ps) {
		t.Fatalf("kill table has %d rows for %d passes", len(killTable), len(ps))
	}
	examples, err := filepath.Glob(filepath.Join(diagnosticsDir, "*.etl"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no diagnostics examples under %s (%v)", diagnosticsDir, err)
	}
	unused := map[string]bool{}
	for _, e := range examples {
		unused[e] = true
	}
	for i, row := range killTable {
		if row.pass != ps[i].Name {
			t.Fatalf("row %d is for %q, the pass table has %q there", i, row.pass, ps[i].Name)
		}
		example := filepath.Join(diagnosticsDir, row.pass+".etl")
		if unused[example] {
			delete(unused, example)
			if row.defect != nil {
				t.Errorf("%s: %s is the kill row; drop the inline defect", row.pass, example)
			}
			row.defect = inFile(example)
		}
		t.Run(row.pass, func(t *testing.T) {
			if row.defect == nil {
				t.Fatal("no seeded defect: delete the pass")
			}
			fired := map[string]int{}
			for _, f := range row.defect(t) {
				fired[f.Check]++
			}
			if fired[row.pass] == 0 || len(fired) != 1 {
				t.Errorf("the seeded defect must be reported by %s and by nothing else; fired: %v", row.pass, fired)
			}
			if got := byCheck(row.clean(t), row.pass); len(got) != 0 {
				t.Errorf("the boundary case must stay clean, got %v", got)
			}
		})
	}
	for e := range unused {
		t.Errorf("%s is named after no pass", e)
	}
}

// TestLateProjectionOnItsPath pins the case the path-based distance must
// keep reporting: in small-01.etl, a5 (project XTRA1,XTRA2) is the fourth
// activity below SRC1 and nothing on the way reads either attribute.
func TestLateProjectionOnItsPath(t *testing.T) {
	src, err := os.ReadFile("../../examples/workflows/small-01.etl")
	if err != nil {
		t.Fatal(err)
	}
	g := mustParse(t, string(src))
	names := dsl.NodeNames(g)
	for _, f := range byCheck(mustCheckWorkflow(t, g), "late-projection") {
		if names[f.Node] == "a5" {
			return
		}
	}
	t.Error("late-projection no longer reports a5 of small-01.etl")
}
