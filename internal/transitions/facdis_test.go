package transitions

import (
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// forked builds S1→a1→U←a2←S2, U→post...→TGT and returns the graph plus
// named IDs.
func forked(t *testing.T, schema data.Schema, a1, a2 *workflow.Activity, post ...*workflow.Activity) (*workflow.Graph, map[string]workflow.NodeID) {
	t.Helper()
	g := workflow.NewGraph()
	ids := map[string]workflow.NodeID{}
	ids["s1"] = g.AddRecordset(&workflow.RecordsetRef{Name: "S1", Schema: schema, Rows: 1000, IsSource: true})
	ids["s2"] = g.AddRecordset(&workflow.RecordsetRef{Name: "S2", Schema: schema, Rows: 1000, IsSource: true})
	ids["a1"] = g.AddActivity(a1)
	ids["a2"] = g.AddActivity(a2)
	ids["u"] = g.AddActivity(templates.Union())
	g.MustAddEdge(ids["s1"], ids["a1"])
	g.MustAddEdge(ids["s2"], ids["a2"])
	g.MustAddEdge(ids["a1"], ids["u"])
	g.MustAddEdge(ids["a2"], ids["u"])
	cur := ids["u"]
	for i, p := range post {
		id := g.AddActivity(p)
		g.MustAddEdge(cur, id)
		ids["p"+string(rune('1'+i))] = id
		cur = id
	}
	ids["tgt"] = g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"x"}, IsTarget: true})
	g.MustAddEdge(cur, ids["tgt"])
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	g.Node(ids["tgt"]).RS.Schema = g.Node(cur).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	return g, ids
}

func TestFactorizeHomologousFilters(t *testing.T) {
	schema := data.Schema{"K", "V"}
	g, ids := forked(t, schema, threshold("V", 50), threshold("V", 50))
	res, err := Factorize(g, ids["u"], ids["a1"], ids["a2"])
	if err != nil {
		t.Fatal(err)
	}
	ng := res.Graph
	// The two filters are gone; a single new filter follows the union.
	if ng.Node(ids["a1"]) != nil || ng.Node(ids["a2"]) != nil {
		t.Error("factorized activities still present")
	}
	succ := ng.Consumers(ids["u"])
	if len(succ) != 1 {
		t.Fatalf("union consumers = %v", succ)
	}
	na := ng.Node(succ[0])
	if na.Kind != workflow.KindActivity || na.Act.Sem.Op != workflow.OpFilter {
		t.Fatalf("union's consumer is %v, want the factorized filter", na.Label())
	}
	// The union now reads directly from the sources in preserved order.
	preds := ng.Providers(ids["u"])
	if preds[0] != ids["s1"] || preds[1] != ids["s2"] {
		t.Errorf("union providers = %v", preds)
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFactorizeTagCombination(t *testing.T) {
	schema := data.Schema{"K", "V"}
	g, ids := forked(t, schema, threshold("V", 50), threshold("V", 50))
	res, err := Factorize(g, ids["u"], ids["a1"], ids["a2"])
	if err != nil {
		t.Fatal(err)
	}
	na := res.Graph.Node(res.Graph.Consumers(ids["u"])[0])
	t1 := g.Node(ids["a1"]).Act.Tag
	t2 := g.Node(ids["a2"]).Act.Tag
	if na.Act.Tag != t1+"&"+t2 && na.Act.Tag != t2+"&"+t1 {
		t.Errorf("factorized tag = %q, want combination of %q and %q", na.Act.Tag, t1, t2)
	}
}

func TestFactorizeNonHomologousRejected(t *testing.T) {
	schema := data.Schema{"K", "V"}
	g, ids := forked(t, schema, threshold("V", 50), threshold("V", 60)) // different thresholds
	_, err := Factorize(g, ids["u"], ids["a1"], ids["a2"])
	if err == nil || !IsRejection(err) {
		t.Fatalf("non-homologous factorization must be rejected, got %v", err)
	}
}

func TestFactorizeAggregationRejected(t *testing.T) {
	schema := data.Schema{"K", "V"}
	agg1 := templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "TOTV", 0.4)
	agg2 := templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "TOTV", 0.4)
	g, ids := forked(t, schema, agg1, agg2)
	_, err := Factorize(g, ids["u"], ids["a1"], ids["a2"])
	if err == nil || !IsRejection(err) {
		t.Fatalf("aggregations must not factorize over a bag union, got %v", err)
	}
}

// TestFactorizeProjectionsRederivesTheUnion: factorizing two projections
// hands the union the unprojected schemas, so the union is re-derived
// although only its new consumer is created.
func TestFactorizeProjectionsRederivesTheUnion(t *testing.T) {
	g, ids := forked(t, data.Schema{"K", "V"}, templates.ProjectOut("V"), templates.ProjectOut("V"))
	res, err := Factorize(g, ids["u"], ids["a1"], ids["a2"])
	if err != nil {
		t.Fatal(err)
	}
	u := res.Graph.Node(ids["u"])
	for i, in := range u.In {
		if !in.Equal(data.Schema{"K", "V"}) {
			t.Errorf("union input %d = {%s}, want {K, V}", i, in)
		}
	}
	if na := res.Graph.Node(res.Graph.Consumers(ids["u"])[0]); !na.Out.Equal(data.Schema{"K"}) {
		t.Errorf("factorized projection delivers {%s}, want {K}", na.Out)
	}
}

func TestDistributeFilterOverUnion(t *testing.T) {
	schema := data.Schema{"K", "V"}
	g, ids := forked(t, schema, templates.NotNull(0.9, "K"), templates.NotNull(0.9, "K"),
		threshold("V", 50))
	res, err := Distribute(g, ids["u"], ids["p1"])
	if err != nil {
		t.Fatal(err)
	}
	ng := res.Graph
	if ng.Node(ids["p1"]) != nil {
		t.Error("distributed activity still present")
	}
	// Each branch now ends with a clone of the filter feeding the union.
	for _, p := range ng.Providers(ids["u"]) {
		n := ng.Node(p)
		if n.Act == nil || n.Act.Sem.Op != workflow.OpFilter {
			t.Errorf("union provider %v is not a filter clone", n.Label())
		}
		if n.Act.Tag != g.Node(ids["p1"]).Act.Tag {
			t.Errorf("clone tag = %q, want inherited %q", n.Act.Tag, g.Node(ids["p1"]).Act.Tag)
		}
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeThenFactorizeRestoresSignature(t *testing.T) {
	// FAC and DIS are reciprocal: distributing a filter and factorizing the
	// clones back must reproduce the original state signature, so the
	// search space dedupes the round trip.
	schema := data.Schema{"K", "V"}
	g, ids := forked(t, schema, templates.NotNull(0.9, "K"), templates.NotNull(0.9, "K"),
		threshold("V", 50))
	sig0 := g.Signature()
	dis, err := Distribute(g, ids["u"], ids["p1"])
	if err != nil {
		t.Fatal(err)
	}
	if dis.Graph.Signature() == sig0 {
		t.Fatal("distribution should change the signature")
	}
	preds := dis.Graph.Providers(ids["u"])
	fac, err := Factorize(dis.Graph, ids["u"], preds[0], preds[1])
	if err != nil {
		t.Fatal(err)
	}
	if fac.Graph.Signature() != sig0 {
		t.Errorf("round trip signature = %q, want %q", fac.Graph.Signature(), sig0)
	}
}

func TestDistributeAggregationRejected(t *testing.T) {
	schema := data.Schema{"K", "V"}
	agg := templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "TOTV", 0.4)
	g, ids := forked(t, schema, templates.NotNull(0.9, "K"), templates.NotNull(0.9, "K"), agg)
	_, err := Distribute(g, ids["u"], ids["p1"])
	if err == nil || !IsRejection(err) {
		t.Fatalf("aggregation must not distribute over a union, got %v", err)
	}
}

func TestDistributeRequiresAdjacency(t *testing.T) {
	schema := data.Schema{"K", "V"}
	g, ids := forked(t, schema, templates.NotNull(0.9, "K"), templates.NotNull(0.9, "K"),
		templates.NotNull(0.95, "V"), threshold("V", 50))
	// p2 (the filter) is not adjacent to the union.
	_, err := Distribute(g, ids["u"], ids["p2"])
	if err == nil || !IsRejection(err) {
		t.Fatalf("distribution requires direct adjacency, got %v", err)
	}
}

func TestMergeAndSplitRoundTrip(t *testing.T) {
	g, ids := chain(t, data.Schema{"A", "B"}, threshold("A", 1), threshold("B", 2))
	sig0 := g.Signature()

	mer, err := Merge(g, ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	mg := mer.Graph
	if len(mg.Activities()) != 1 {
		t.Fatalf("merged graph has %d activities", len(mg.Activities()))
	}
	m := mg.Node(mg.Activities()[0])
	if m.Act.Sem.Op != workflow.OpMerged || len(m.Act.Sem.Components) != 2 {
		t.Fatalf("merged activity malformed: %v", m.Act.Sem)
	}
	if m.Act.Sel != 0.25 {
		t.Errorf("merged selectivity = %v, want product 0.25", m.Act.Sel)
	}

	spl, err := Split(mg, m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if spl.Graph.Signature() != sig0 {
		t.Errorf("merge+split signature = %q, want %q", spl.Graph.Signature(), sig0)
	}
}

func TestMergeThreeThenSplitHeadFirst(t *testing.T) {
	// a+b+c splits as a and b+c (§3.3).
	g, ids := chain(t, data.Schema{"A", "B", "C"},
		threshold("A", 1), threshold("B", 2), threshold("C", 3))
	m1, err := Merge(g, ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	mID := m1.Graph.Activities()[0]
	// Find the merged node (the other activity is ids[2]).
	for _, id := range m1.Graph.Activities() {
		if m1.Graph.Node(id).Act.Sem.Op == workflow.OpMerged {
			mID = id
		}
	}
	m2, err := Merge(m1.Graph, mID, ids[2])
	if err != nil {
		t.Fatal(err)
	}
	var tri workflow.NodeID
	for _, id := range m2.Graph.Activities() {
		if m2.Graph.Node(id).Act.Sem.Op == workflow.OpMerged {
			tri = id
		}
	}
	if comps := m2.Graph.Node(tri).Act.Sem.Components; len(comps) != 3 {
		t.Fatalf("triple merge has %d components", len(comps))
	}
	spl, err := Split(m2.Graph, tri)
	if err != nil {
		t.Fatal(err)
	}
	// After one split: a plain head plus a 2-component package.
	var found bool
	for _, id := range spl.Graph.Activities() {
		if a := spl.Graph.Node(id).Act; a.Sem.Op == workflow.OpMerged {
			if len(a.Sem.Components) != 2 {
				t.Errorf("tail package has %d components, want 2", len(a.Sem.Components))
			}
			found = true
		}
	}
	if !found {
		t.Error("split should leave a packaged tail")
	}
}

func TestSplitAll(t *testing.T) {
	g, ids := chain(t, data.Schema{"A", "B", "C"},
		threshold("A", 1), threshold("B", 2), threshold("C", 3))
	sig0 := g.Signature()
	m1, _ := Merge(g, ids[0], ids[1])
	var mID workflow.NodeID
	for _, id := range m1.Graph.Activities() {
		if m1.Graph.Node(id).Act.Sem.Op == workflow.OpMerged {
			mID = id
		}
	}
	m2, err := Merge(m1.Graph, mID, ids[2])
	if err != nil {
		t.Fatal(err)
	}
	flat, splits, err := SplitAll(m2.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 || splits[1].Graph != flat {
		t.Fatalf("SplitAll applied %d splits, want 2 ending in the flat graph", len(splits))
	}
	for _, res := range splits {
		if res.Applied.Op != "SPL" {
			t.Errorf("SplitAll applied %s, want SPL", res.Applied.Desc())
		}
	}
	if flat.Signature() != sig0 {
		t.Errorf("SplitAll signature = %q, want %q", flat.Signature(), sig0)
	}
	for _, id := range flat.Activities() {
		if flat.Node(id).Act.Sem.Op == workflow.OpMerged {
			t.Error("SplitAll left a merged activity")
		}
	}
}

func TestMergedActivityBlocksInsertion(t *testing.T) {
	// The point of MER: a merged pair acts as one unit, so a third
	// activity cannot swap in between — swapping with the package moves
	// both components together.
	g, ids := chain(t, data.Schema{"A", "B", "C"},
		threshold("A", 1), threshold("B", 2), threshold("C", 3))
	m, err := Merge(g, ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	var mID workflow.NodeID
	for _, id := range m.Graph.Activities() {
		if m.Graph.Node(id).Act.Sem.Op == workflow.OpMerged {
			mID = id
		}
	}
	res, err := Swap(m.Graph, mID, ids[2])
	if err != nil {
		t.Fatalf("package should swap as a unit: %v", err)
	}
	// After the swap, σ(C) precedes the package, whose components remain
	// adjacent.
	order, _ := res.Graph.TopoSort()
	var seq []workflow.NodeID
	for _, id := range order {
		if res.Graph.Node(id).Kind == workflow.KindActivity {
			seq = append(seq, id)
		}
	}
	if len(seq) != 2 || seq[0] != ids[2] || seq[1] != mID {
		t.Errorf("activity order after package swap = %v", seq)
	}
}

func TestShiftForwardAndBackward(t *testing.T) {
	schema := data.Schema{"K", "V", "W"}
	g, ids := forked(t, schema,
		templates.NotNull(0.9, "K"), templates.NotNull(0.9, "K"),
		templates.NotNull(0.95, "V"), threshold("W", 10), threshold("V", 50))
	// p3 = σ(V≥50) sits two activities after the union; shifting backward
	// should make it adjacent.
	res, err := ShiftBackward(g, ids["p3"], ids["u"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 2 {
		t.Errorf("Swaps = %d, want 2", res.Swaps)
	}
	if got := res.Graph.Providers(ids["p3"]); len(got) != 1 || got[0] != ids["u"] {
		t.Errorf("after shift, providers = %v", got)
	}
	// The shift left g untouched: it succeeds on g again.
	if _, err := ShiftBackward(g, ids["p3"], ids["u"]); err != nil {
		t.Errorf("shifting the original again: %v", err)
	}
	if _, err := ShiftBackward(g, ids["p3"], ids["tgt"]); err == nil {
		t.Error("shifting to a non-provider should fail")
	}
}

func TestShiftForwardBlocked(t *testing.T) {
	// A conversion cannot shift forward across a selection on its output.
	conv := templates.Convert("dollar2euro", "E", "D")
	sigmaE := threshold("E", 10)
	g, ids := chain(t, data.Schema{"D"}, conv, sigmaE)
	// Try to shift conv to the target — blocked by the dependent filter.
	_, err := ShiftForward(g, ids[0], ids[1])
	// ids[1] is the filter itself; shifting "to" it means ending adjacent,
	// which conv already is — so use the consumer beyond.
	if err != nil {
		t.Fatalf("conv is already adjacent to the filter: %v", err)
	}
	tgt := g.Consumers(ids[1])[0]
	if _, err := ShiftForward(g, ids[0], tgt); err == nil {
		t.Error("shifting a conversion across its dependent filter should fail")
	}
}
