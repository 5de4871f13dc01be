package analysis

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"etlopt/internal/dsl"
	"etlopt/internal/workflow"
)

func mustParse(t *testing.T, src string) *workflow.Graph {
	t.Helper()
	g, err := dsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return g
}

func interpretPrepared(t *testing.T, src string) (*workflow.Graph, *AbsResult) {
	t.Helper()
	g := mustParse(t, src)
	c := g.Clone()
	if err := c.RegenerateSchemata(); err != nil {
		t.Fatalf("schemata: %v", err)
	}
	res, err := Interpret(c)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	return c, res
}

func TestIntervalOps(t *testing.T) {
	a, b := Interval{2, 5}, Interval{-1, 3}
	if got := a.Intersect(b); got != (Interval{2, 3}) {
		t.Errorf("intersect: %v", got)
	}
	if got := a.Hull(b); got != (Interval{-1, 5}) {
		t.Errorf("hull: %v", got)
	}
	if got := a.Add(b); got != (Interval{1, 8}) {
		t.Errorf("add: %v", got)
	}
	if got := a.Sub(b); got != (Interval{-1, 6}) {
		t.Errorf("sub: %v", got)
	}
	if got := a.Mul(Interval{-2, 3}); got != (Interval{-10, 15}) {
		t.Errorf("mul: %v", got)
	}
	// 0 × ∞ must contribute 0, not NaN.
	if got := PointInterval(0).Mul(TopInterval()); got != (Interval{0, 0}) {
		t.Errorf("0*top: %v", got)
	}
	if !(Interval{3, 2}).IsEmpty() {
		t.Error("inverted bounds should be empty")
	}
	if (Interval{2, 5}).IsEmpty() || !PointInterval(4).IsPoint() {
		t.Error("IsEmpty/IsPoint misbehave")
	}
	if s := (Interval{117, math.Inf(1)}).String(); s != "[117,+inf)" {
		t.Errorf("string: %q", s)
	}
}

// A three-stage flow: filter refines V's domain and proves it non-null,
// notnull on a filtered attribute is provably dead, and provenance roots
// flow from SRC into the target.
const absintPipe = `
recordset SRC source rows=1000 schema=KEY,V
activity f1 filter pred="(V>=117)" sel=0.5
activity g1 notnull attrs=V sel=0.9
recordset TGT target schema=KEY,V

flow SRC -> f1
flow f1 -> g1
flow g1 -> TGT
`

func TestInterpretRefinement(t *testing.T) {
	g, res := interpretPrepared(t, absintPipe)
	var filterID, guardID workflow.NodeID = -1, -1
	for _, id := range g.Activities() {
		switch g.Node(id).Act.Sem.Op {
		case workflow.OpFilter:
			filterID = id
		case workflow.OpNotNull:
			guardID = id
		}
	}
	st := res.Nodes[filterID]
	if st == nil {
		t.Fatal("no state for filter")
	}
	d := st.Attrs["V"]
	if d.Val.Lo != 117 || !math.IsInf(d.Val.Hi, 1) {
		t.Errorf("V after filter: %v", d.Val)
	}
	if d.MaybeNull {
		t.Error("V should be proven non-null after surviving the comparison")
	}
	if len(d.Roots) != 1 || d.Roots[0] != "SRC.V" {
		t.Errorf("V roots: %v", d.Roots)
	}
	if st.Card != (Interval{500, 500}) {
		t.Errorf("filter card: %v", st.Card)
	}
	// The guard is proven dead: its selectivity interval collapses to [1,1]
	// and cardinality passes through unchanged.
	gst := res.Nodes[guardID]
	if gst.Sel != PointInterval(1) {
		t.Errorf("guard sel: %v", gst.Sel)
	}
	if gst.Card != (Interval{500, 500}) {
		t.Errorf("guard card: %v", gst.Card)
	}
	// Target inherits the refined domains.
	tgt := res.Nodes[g.Targets()[0]]
	if tgt.Attrs["V"].MaybeNull || tgt.Attrs["V"].Val.Lo != 117 {
		t.Errorf("target V: %+v", tgt.Attrs["V"])
	}
	if res.SourceRows != 1000 {
		t.Errorf("source rows: %v", res.SourceRows)
	}
}

func TestEvalPredNullSemantics(t *testing.T) {
	// KEY is maybe-null at the source, so (KEY>=0) over a top interval is
	// unknown, but an always-false comparison is decided regardless of
	// nullability (NULL rows also fail).
	g, res := interpretPrepared(t, `
recordset SRC source rows=10 schema=KEY
activity f1 filter pred="(KEY>=0)" sel=0.5
activity f2 filter pred="(KEY<-5)" sel=0.5
recordset TGT target schema=KEY

flow SRC -> f1
flow f1 -> f2
flow f2 -> TGT
`)
	var first workflow.NodeID = -1
	for _, id := range g.Activities() {
		if first < 0 {
			first = id
		}
	}
	src := res.Nodes[g.Sources()[0]]
	if got := evalPred(g.Node(first).Act.Sem.Pred, src); got != triUnknown {
		t.Errorf("maybe-null top comparison: got %v, want unknown", got)
	}
	// After f1, KEY ∈ [0,+inf) and non-null, so (KEY<-5) is always false.
	f1 := res.Nodes[first]
	second := g.Consumers(first)[0]
	if got := evalPred(g.Node(second).Act.Sem.Pred, f1); got != triFalse {
		t.Errorf("disjoint comparison: got %v, want false", got)
	}
	if res.Nodes[second].Card != (Interval{0, 0}) {
		t.Errorf("dead branch card: %v", res.Nodes[second].Card)
	}
}

func checksOf(fs []Finding, check string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

func TestDeadFilterPass(t *testing.T) {
	// Positive: a second, weaker filter after a stronger one.
	fs, err := CheckWorkflow(mustParse(t, `
recordset SRC source rows=100 schema=KEY,V
activity f1 filter pred="(V>=117)" sel=0.5
activity f2 filter pred="(V>=35)" sel=0.9
recordset TGT target schema=KEY,V

flow SRC -> f1
flow f1 -> f2
flow f2 -> TGT
`))
	if err != nil {
		t.Fatal(err)
	}
	dead := checksOf(fs, "dead-filter")
	if len(dead) != 1 {
		t.Fatalf("want exactly one dead-filter, got %d: %v", len(dead), dead)
	}
	if dead[0].Severity != Advice {
		t.Errorf("dead-filter severity: %v", dead[0].Severity)
	}
	if !strings.Contains(dead[0].Message, "[117,+inf)") {
		t.Errorf("message lacks interval evidence: %q", dead[0].Message)
	}

	// Boundary: the filters reversed — the weaker one first — leaves the
	// second filter live; no finding.
	fs, err = CheckWorkflow(mustParse(t, `
recordset SRC source rows=100 schema=KEY,V
activity f1 filter pred="(V>=35)" sel=0.9
activity f2 filter pred="(V>=117)" sel=0.5
recordset TGT target schema=KEY,V

flow SRC -> f1
flow f1 -> f2
flow f2 -> TGT
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := checksOf(fs, "dead-filter"); len(got) != 0 {
		t.Errorf("boundary fixture fired: %v", got)
	}
}

func TestUnsatisfiableGuardPass(t *testing.T) {
	// Positive: upstream filter forces V >= 117, downstream demands V < 50.
	fs, err := CheckWorkflow(mustParse(t, `
recordset SRC source rows=100 schema=KEY,V
activity f1 filter pred="(V>=117)" sel=0.5
activity f2 filter pred="(V<50)" sel=0.3
recordset TGT target schema=KEY,V

flow SRC -> f1
flow f1 -> f2
flow f2 -> TGT
`))
	if err != nil {
		t.Fatal(err)
	}
	unsat := checksOf(fs, "unsatisfiable-guard")
	if len(unsat) != 1 {
		t.Fatalf("want exactly one unsatisfiable-guard, got %d: %v", len(unsat), unsat)
	}
	if unsat[0].Severity != Warning {
		t.Errorf("severity: %v", unsat[0].Severity)
	}
	if !strings.Contains(unsat[0].Message, "[0,0]") {
		t.Errorf("message lacks the collapsed interval: %q", unsat[0].Message)
	}

	// Boundary: overlapping ranges stay satisfiable.
	fs, err = CheckWorkflow(mustParse(t, `
recordset SRC source rows=100 schema=KEY,V
activity f1 filter pred="(V>=117)" sel=0.5
activity f2 filter pred="(V<500)" sel=0.3
recordset TGT target schema=KEY,V

flow SRC -> f1
flow f1 -> f2
flow f2 -> TGT
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := checksOf(fs, "unsatisfiable-guard"); len(got) != 0 {
		t.Errorf("boundary fixture fired: %v", got)
	}
}

func TestBrokenProvenancePass(t *testing.T) {
	// Positive: a count aggregate synthesizes CNT from no source attribute.
	fs, err := CheckWorkflow(mustParse(t, `
recordset SRC source rows=100 schema=KEY,V
activity agg aggregate group=KEY fn=count out=CNT sel=0.1
recordset TGT target schema=KEY,CNT

flow SRC -> agg
flow agg -> TGT
`))
	if err != nil {
		t.Fatal(err)
	}
	broken := checksOf(fs, "broken-provenance")
	if len(broken) != 1 {
		t.Fatalf("want exactly one broken-provenance, got %d: %v", len(broken), broken)
	}
	if broken[0].Severity != Warning {
		t.Errorf("severity: %v", broken[0].Severity)
	}
	if !strings.Contains(broken[0].Message, "TGT.CNT") || !strings.Contains(broken[0].Message, "∅") {
		t.Errorf("message lacks lineage evidence: %q", broken[0].Message)
	}

	// Boundary: a sum aggregate carries V's provenance into the target.
	fs, err = CheckWorkflow(mustParse(t, `
recordset SRC source rows=100 schema=KEY,V
activity agg aggregate group=KEY fn=sum attr=V out=TOTAL sel=0.1
recordset TGT target schema=KEY,TOTAL

flow SRC -> agg
flow agg -> TGT
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := checksOf(fs, "broken-provenance"); len(got) != 0 {
		t.Errorf("boundary fixture fired: %v", got)
	}
}

func TestCardinalityBlowupPass(t *testing.T) {
	// Positive: a sel=1 equi-join admits the full cross product,
	// 100×100 = 10000 > 10 × 200 source rows.
	src := `
recordset L source rows=100 schema=KEY,V1
recordset R source rows=100 schema=KEY,V2
activity j join keys=KEY sel=1
recordset TGT target schema=KEY,V1,V2

flow L -> j
flow R -> j
flow j -> TGT
`
	fs, err := CheckWorkflow(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	blow := checksOf(fs, "cardinality-blowup")
	if len(blow) != 1 {
		t.Fatalf("want exactly one cardinality-blowup, got %d: %v", len(blow), blow)
	}
	if blow[0].Severity != Warning {
		t.Errorf("severity: %v", blow[0].Severity)
	}
	if !strings.Contains(blow[0].Message, "[10000,10000]") {
		t.Errorf("message lacks the cardinality interval: %q", blow[0].Message)
	}

	// Boundary: raising the bound suppresses the finding.
	fs, err = CheckWorkflowOpts(mustParse(t, src), &WorkflowOptions{CardinalityBound: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := checksOf(fs, "cardinality-blowup"); len(got) != 0 {
		t.Errorf("raised bound still fired: %v", got)
	}
	// Boundary: a selective join stays under the default bound.
	fs, err = CheckWorkflow(mustParse(t, strings.Replace(src, "sel=1", "sel=0.01", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := checksOf(fs, "cardinality-blowup"); len(got) != 0 {
		t.Errorf("selective join fired: %v", got)
	}
}

// TestAbsintDeterminism verifies the acceptance criterion: pass output is
// byte-identical across repeated runs and across GOMAXPROCS 1 vs N.
func TestAbsintDeterminism(t *testing.T) {
	srcs := []string{absintPipe, `
recordset L source rows=100 schema=KEY,V1,W
recordset R source rows=100 schema=KEY,V2
activity f1 filter pred="(V1>=10)" sel=0.5
activity j join keys=KEY sel=1
activity agg aggregate group=KEY fn=count out=CNT sel=0.1
recordset TGT target schema=KEY,CNT

flow L -> f1
flow f1 -> j
flow R -> j
flow j -> agg
flow agg -> TGT
`}
	render := func() string {
		var sb strings.Builder
		for _, src := range srcs {
			g, err := dsl.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := CheckWorkflow(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fs {
				fmt.Fprintf(&sb, "%s | file=%s:%d:%d\n", f.String(), f.File, f.Line, f.Col)
			}
		}
		return sb.String()
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	base := render()
	for i := 0; i < 3; i++ {
		if got := render(); got != base {
			t.Fatalf("run %d at GOMAXPROCS 1 differs:\n%s\n--vs--\n%s", i, got, base)
		}
	}
	runtime.GOMAXPROCS(max(4, prev))
	for i := 0; i < 3; i++ {
		if got := render(); got != base {
			t.Fatalf("run %d at GOMAXPROCS %d differs:\n%s\n--vs--\n%s", i, runtime.GOMAXPROCS(0), got, base)
		}
	}
}
