package transitions

import (
	"testing"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// chain builds SRC(schema) → acts → TGT(auto schema) and returns graph and
// the activity IDs.
func chain(t *testing.T, schema data.Schema, acts ...*workflow.Activity) (*workflow.Graph, []workflow.NodeID) {
	t.Helper()
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "SRC", Schema: schema, Rows: 1000, IsSource: true})
	cur := src
	var ids []workflow.NodeID
	for _, a := range acts {
		id := g.AddActivity(a)
		g.MustAddEdge(cur, id)
		ids = append(ids, id)
		cur = id
	}
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"x"}, IsTarget: true})
	g.MustAddEdge(cur, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	// Fix the target schema to whatever the chain delivers.
	g.Node(tgt).RS.Schema = g.Node(cur).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	return g, ids
}

func threshold(attr string, lim float64) *workflow.Activity {
	return templates.Threshold(attr, lim, 0.5)
}

func TestSwapTwoFilters(t *testing.T) {
	g, ids := chain(t, data.Schema{"A", "B"}, threshold("A", 1), threshold("B", 2))
	res, err := Swap(g, ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	// The second filter now comes first.
	order, _ := res.Graph.TopoSort()
	pos := map[workflow.NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos[ids[1]] >= pos[ids[0]] {
		t.Error("swap did not reorder the activities")
	}
	if res.Description() != "SWA(2,3)" {
		t.Errorf("Description = %q", res.Description())
	}
	// The original graph is untouched.
	o, _ := g.TopoSort()
	p0 := map[workflow.NodeID]int{}
	for i, id := range o {
		p0[id] = i
	}
	if p0[ids[0]] >= p0[ids[1]] {
		t.Error("swap mutated its input graph")
	}
}

func TestSwapRejectedFunctionality(t *testing.T) {
	// Fig. 5: σ(ECOST≥100) cannot be pushed before $2€, whose output it
	// inspects — after the swap the selection's functionality schema is no
	// longer contained in its input (condition 3).
	conv := templates.Convert("dollar2euro", "ECOST", "DCOST")
	sigma := threshold("ECOST", 100)
	g, ids := chain(t, data.Schema{"K", "DCOST"}, conv, sigma)
	_, err := Swap(g, ids[0], ids[1])
	if err == nil {
		t.Fatal("swap σ(ECOST) before $2€ must be rejected")
	}
	if !IsRejection(err) {
		t.Fatalf("want a rejection, got %v", err)
	}
}

func TestSwapRejectedProjectedOut(t *testing.T) {
	// Fig. 6: a2 is a projection dropping X; a1 declares X in its input
	// schema (RequiredIn). After the swap X has no provider (condition 4).
	a1 := templates.NotNull(0.9, "A")
	a1.RequiredIn = data.Schema{"X"}
	a2 := templates.ProjectOut("X")
	g, ids := chain(t, data.Schema{"A", "X"}, a1, a2)
	_, err := Swap(g, ids[0], ids[1])
	if err == nil || !IsRejection(err) {
		t.Fatalf("swap must be rejected when a declared input loses its provider, got %v", err)
	}
	// A rejection renders its message only when read; the text is the one
	// an eagerly formatted rejection carried.
	const want = "SWA rejected: resulting state ill-formed: workflow: activity 2 (NN(A)): declared input attributes {X} not all provided by {A}"
	if err.Error() != want {
		t.Errorf("rejection reads %q, want %q", err, want)
	}
	if _, err := Swap(g, ids[1], ids[0]); err == nil || err.Error() != "SWA rejected: activities 3 and 2 are not adjacent" {
		t.Errorf("swapping the pair backwards: %v", err)
	}
	// Without the declaration, pushing the projection earlier is legal.
	b1 := templates.NotNull(0.9, "A")
	b2 := templates.ProjectOut("X")
	g2, ids2 := chain(t, data.Schema{"A", "X"}, b1, b2)
	if _, err := Swap(g2, ids2[0], ids2[1]); err != nil {
		t.Errorf("projection push without declared dependency should be legal: %v", err)
	}
}

func TestSwapAggregationWithInPlaceFunc(t *testing.T) {
	// The Fig. 2 swap: the aggregation may move before the A2E date
	// reformat because dates act as groupers and the reformat is a
	// bijection.
	a2e := templates.Reformat("a2edate", "DATE")
	agg := templates.Aggregate([]string{"K", "DATE"}, workflow.AggSum, "V", "TOTV", 0.4)
	g, ids := chain(t, data.Schema{"K", "DATE", "V"}, a2e, agg)
	if _, err := Swap(g, ids[0], ids[1]); err != nil {
		t.Errorf("A2E ↔ aggregation swap should be legal: %v", err)
	}
}

func TestSwapAggregationWithNonBijectiveInPlace(t *testing.T) {
	// upper() is not a bijection; grouping by CODE before vs after
	// upper-casing differs, so the swap must be rejected.
	up := templates.Reformat("upper", "CODE")
	agg := templates.Aggregate([]string{"CODE"}, workflow.AggSum, "V", "TOTV", 0.4)
	g, ids := chain(t, data.Schema{"CODE", "V"}, up, agg)
	_, err := Swap(g, ids[0], ids[1])
	if err == nil || !IsRejection(err) {
		t.Fatalf("non-bijective in-place reformat must not cross an aggregation, got %v", err)
	}
}

func TestSwapFilterAcrossInPlaceFuncRejected(t *testing.T) {
	// σ(DATE='01/02/2004') is format-sensitive: it must not cross
	// A2E(DATE).
	a2e := templates.Reformat("a2edate", "DATE")
	sigma := templates.Filter(algebra.Cmp{
		Op: algebra.EQ, Left: algebra.Attr{Name: "DATE"},
		Right: algebra.Const{Value: data.NewString("01/02/2004")},
	}, 0.1)
	g, ids := chain(t, data.Schema{"DATE"}, a2e, sigma)
	_, err := Swap(g, ids[0], ids[1])
	if err == nil || !IsRejection(err) {
		t.Fatalf("format-sensitive selection must not cross in-place reformat, got %v", err)
	}
}

func TestSwapNotNullAcrossInPlaceFuncAllowed(t *testing.T) {
	// Not-null checks only inspect NULL-ness; in-place functions are
	// NULL-preserving, so the swap is legal.
	a2e := templates.Reformat("a2edate", "DATE")
	nn := templates.NotNull(0.95, "DATE")
	g, ids := chain(t, data.Schema{"DATE"}, a2e, nn)
	if _, err := Swap(g, ids[0], ids[1]); err != nil {
		t.Errorf("NN should cross in-place reformat: %v", err)
	}
}

func TestSwapFilterAcrossAggregationOnGrouper(t *testing.T) {
	// σ on a grouper commutes with the aggregation (whole groups filter).
	agg := templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "TOTV", 0.4)
	sigma := threshold("K", 10)
	g, ids := chain(t, data.Schema{"K", "V"}, agg, sigma)
	if _, err := Swap(g, ids[0], ids[1]); err != nil {
		t.Errorf("grouper selection should cross aggregation: %v", err)
	}
}

func TestSwapFilterAcrossAggregationOnAggregateRejected(t *testing.T) {
	// σ on the aggregated output cannot move below the aggregation —
	// condition 3, the paper's σ(€COST) vs γ case.
	agg := templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "TOTV", 0.4)
	sigma := threshold("TOTV", 100)
	g, ids := chain(t, data.Schema{"K", "V"}, agg, sigma)
	_, err := Swap(g, ids[0], ids[1])
	if err == nil || !IsRejection(err) {
		t.Fatalf("selection on aggregated value must stay above γ, got %v", err)
	}
}

func TestSwapDistinctAcrossProjectionRejected(t *testing.T) {
	d := templates.Distinct(0.9)
	p := templates.ProjectOut("X")
	g, ids := chain(t, data.Schema{"A", "X"}, p, d)
	_, err := Swap(g, ids[0], ids[1])
	if err == nil || !IsRejection(err) {
		t.Fatalf("DISTINCT must not cross a projection, got %v", err)
	}
}

func TestSwapDistinctAcrossBijectiveConvertAllowed(t *testing.T) {
	d := templates.Distinct(0.9)
	conv := templates.Convert("dollar2euro", "E", "D")
	g, ids := chain(t, data.Schema{"D"}, conv, d)
	if _, err := Swap(g, ids[0], ids[1]); err != nil {
		t.Errorf("DISTINCT should cross a bijective conversion: %v", err)
	}
}

func TestSwapDistinctAcrossNonInjectiveRejected(t *testing.T) {
	d := templates.Distinct(0.9)
	rnd := templates.Convert("round", "R", "V") // rounding merges records
	g, ids := chain(t, data.Schema{"V"}, rnd, d)
	_, err := Swap(g, ids[0], ids[1])
	if err == nil || !IsRejection(err) {
		t.Fatalf("DISTINCT must not cross a non-injective conversion, got %v", err)
	}
}

func TestSwapGroupPKAcrossFilterRejected(t *testing.T) {
	pk := templates.PKCheck(0.9, "K")
	sigma := threshold("V", 10)
	g, ids := chain(t, data.Schema{"K", "V"}, pk, sigma)
	_, err := Swap(g, ids[0], ids[1])
	if err == nil || !IsRejection(err) {
		t.Fatalf("group-based key check must not cross a selection, got %v", err)
	}
	// The lookup-based variant behaves like a filter and may swap.
	pk2 := templates.PKCheckAgainst("L", 0.9, "K")
	g2, ids2 := chain(t, data.Schema{"K", "V"}, pk2, threshold("V", 10))
	if _, err := Swap(g2, ids2[0], ids2[1]); err != nil {
		t.Errorf("lookup-based key check should swap with a selection: %v", err)
	}
}

func TestSwapNonAdjacentRejected(t *testing.T) {
	g, ids := chain(t, data.Schema{"A", "B", "C"},
		threshold("A", 1), threshold("B", 2), threshold("C", 3))
	_, err := Swap(g, ids[0], ids[2])
	if err == nil || !IsRejection(err) {
		t.Fatalf("non-adjacent swap must be rejected, got %v", err)
	}
}

func TestSwapBinaryRejected(t *testing.T) {
	g := workflow.NewGraph()
	s1 := g.AddRecordset(&workflow.RecordsetRef{Name: "S1", Schema: data.Schema{"A"}, Rows: 10, IsSource: true})
	s2 := g.AddRecordset(&workflow.RecordsetRef{Name: "S2", Schema: data.Schema{"A"}, Rows: 10, IsSource: true})
	u := g.AddActivity(templates.Union())
	f := g.AddActivity(threshold("A", 1))
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"A"}, IsTarget: true})
	g.MustAddEdge(s1, u)
	g.MustAddEdge(s2, u)
	g.MustAddEdge(u, f)
	g.MustAddEdge(f, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	if _, err := Swap(g, u, f); err == nil || !IsRejection(err) {
		t.Fatalf("swap involving a binary activity must be rejected, got %v", err)
	}
}

func TestSwapGeneratedAttributeDependency(t *testing.T) {
	// f generates E; g consumes E: cond 3 blocks the swap.
	f := templates.Apply("dollar2euro", "E", "D")
	sigmaE := threshold("E", 10)
	g, ids := chain(t, data.Schema{"D"}, f, sigmaE)
	if _, err := Swap(g, ids[0], ids[1]); err == nil {
		t.Fatal("dependent function/selection swap must be rejected")
	}
}
