package share

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/generator"
	"etlopt/internal/workflow"
)

// classSuites are the suites the class tests plan: shared-prefix suites at
// two sizes and three seeds each, and the members of
// TestSuiteTellsIntFromFloatConstants, whose filters differ only in an int
// and a float constant, with one more int member over other data.
func classSuites(t *testing.T) map[string][]Workflow {
	t.Helper()
	suites := make(map[string][]Workflow)
	for _, cat := range []generator.Category{generator.Small, generator.Medium} {
		for _, seed := range []int64{5, 11, 20050405} {
			scs, err := generator.SharedSuite(cat, 4, seed)
			if err != nil {
				t.Fatal(err)
			}
			suites[fmt.Sprintf("%v/%d", cat, seed)] = suiteWorkflows(scs)
		}
	}
	var consts []Workflow
	for i, pred := range []string{"(X+2)>X", "(X+2.0)>X", "(X+2)>X", "(X+2)>X"} {
		g, err := dsl.Parse(fmt.Sprintf("recordset S source rows=2 schema=X\nactivity f filter pred=%q\nrecordset T target schema=X\nflow S -> f -> T\n", pred))
		if err != nil {
			t.Fatal(err)
		}
		rows := data.Rows{{data.NewInt(5)}, {data.NewInt(1 << 60)}}
		if i == 3 {
			rows = rows[:1]
		}
		src := data.NewMemoryRecordset("S", data.Schema{"X"}).MustLoad(rows)
		consts = append(consts, Workflow{Name: fmt.Sprint(i), Graph: g, Bindings: map[string]data.Recordset{"S": src}})
	}
	suites["int-float"] = consts
	// Each member leaves the chain a → b → c one step later than the one
	// before, so each of a, b and c is a stage reading the one before it.
	var chain []Workflow
	for i, steps := range [][]string{{"a", "y"}, {"a", "b", "y"}, {"a", "b", "c", "y"}, {"a", "b", "c"}} {
		text := "recordset S source rows=1 schema=X\nrecordset T target schema=X\n"
		for _, step := range steps {
			bound := map[string]int{"a": 1, "b": 2, "c": 3, "y": 10 + i}[step]
			text += fmt.Sprintf("activity %s filter pred=\"X>%d\"\n", step, bound)
		}
		g, err := dsl.Parse(text + "flow S -> " + strings.Join(steps, " -> ") + " -> T\n")
		if err != nil {
			t.Fatal(err)
		}
		src := data.NewMemoryRecordset("S", data.Schema{"X"}).MustLoad(data.Rows{{data.NewInt(5)}})
		chain = append(chain, Workflow{Name: fmt.Sprint(i), Graph: g, Bindings: map[string]data.Recordset{"S": src}})
	}
	suites["chain"] = chain
	return suites
}

// render is the reference for a node's class: its whole closure written
// out, the node's own part — what it is and computes, with the digest of
// the data it reads — and then its providers' renderings, in order.
func render(t *testing.T, wf Workflow, id workflow.NodeID, memo map[workflow.NodeID]string) string {
	if s, ok := memo[id]; ok {
		return s
	}
	digest := func(name string) string {
		d, err := wf.Bindings[name].Digest()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%q digest %x", name, d)
	}
	g, n := wf.Graph, wf.Graph.Node(id)
	var b strings.Builder
	switch {
	case n.Kind == workflow.KindActivity:
		fmt.Fprintf(&b, "activity %q in %q out %q", n.Act.Sem.String(), n.In, n.Out)
		if n.Act.Sem.Lookup != "" {
			b.WriteString(" lookup " + digest(n.Act.Sem.Lookup))
		}
	case len(g.Providers(id)) == 0:
		fmt.Fprintf(&b, "source %s schema %q", digest(n.RS.Name), n.RS.Schema)
	default:
		fmt.Fprintf(&b, "target %q schema %q", n.RS.Name, n.RS.Schema)
	}
	b.WriteString(" (")
	for i, p := range g.Providers(id) {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(render(t, wf, p, memo))
	}
	b.WriteString(")")
	memo[id] = b.String()
	return memo[id]
}

// TestClassesAreClosures: any two nodes of a suite, in one member or two,
// are in one class exactly when their whole closures render equal. The
// rendering is the reference that a 64-bit hash of the closure was never
// checked against.
func TestClassesAreClosures(t *testing.T) {
	for name, wfs := range classSuites(t) {
		p, err := newPlan(context.Background(), wfs, 2)
		if err != nil {
			t.Fatal(err)
		}
		classOf := make(map[string]int)
		renderOf := make(map[int]string)
		met := make(map[int]int) // class → members it occurs in
		for _, pw := range p.workflows {
			memo := make(map[workflow.NodeID]string)
			seen := make(map[int]bool)
			for id, c := range pw.classes {
				r := render(t, pw.wf, id, memo)
				if prev, ok := classOf[r]; ok && prev != c {
					t.Errorf("%s: one closure is in classes %d and %d: %s", name, prev, c, r)
				}
				if prev, ok := renderOf[c]; ok && prev != r {
					t.Errorf("%s: class %d holds two closures:\n%s\n%s", name, c, prev, r)
				}
				classOf[r], renderOf[c] = c, r
				if !seen[c] {
					seen[c] = true
					met[c]++
				}
			}
		}
		shared := 0
		for _, n := range met {
			if n > 1 {
				shared++
			}
		}
		if shared == 0 || shared == len(met) {
			t.Errorf("%s: %d of %d classes occur in more than one member; the suite proves nothing", name, shared, len(met))
		}
	}
}

// TestStageOrderIsDependenciesFirst: a stage reads only stages of smaller
// classes, so the plan's order, by class, runs every stage after the
// stages it reads.
func TestStageOrderIsDependenciesFirst(t *testing.T) {
	for name, wfs := range classSuites(t) {
		p, err := newPlan(context.Background(), wfs, 2)
		if err != nil {
			t.Fatal(err)
		}
		at := make(map[int]int, len(p.order))
		for i, c := range p.order {
			at[c] = i
		}
		if len(at) != len(p.stages) || len(p.order) != len(p.stages) {
			t.Fatalf("%s: the order lists %d stages (%d distinct), the plan has %d", name, len(p.order), len(at), len(p.stages))
		}
		deps := 0
		for c, st := range p.stages {
			if _, ok := at[c]; !ok || st.class != c {
				t.Errorf("%s: stage %d is not in the order under its class (%d)", name, c, st.class)
			}
			for _, d := range st.deps {
				deps++
				if d >= c || at[d] >= at[c] {
					t.Errorf("%s: stage %d (at %d) reads stage %d (at %d)", name, c, at[c], d, at[d])
				}
			}
		}
		t.Logf("%s: %d stages, %d dependencies", name, len(p.stages), deps)
	}
}
