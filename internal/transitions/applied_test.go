package transitions

import (
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// TestFactorizeMismatchedFunctionalityRejected: two activities with the
// same operation (equal semantics strings) but different functionality
// schemata are SameOperation yet not Homologous — the FAC guard must
// reject them.
func TestFactorizeMismatchedFunctionalityRejected(t *testing.T) {
	schema := data.Schema{"K", "V"}
	a1 := threshold("V", 50)
	a2 := threshold("V", 50)
	a2.Fun = append(a2.Fun.Clone(), "K") // same predicate, wider functionality
	if !a1.SameOperation(a2) {
		t.Fatal("test setup: operations should match")
	}
	if a1.Homologous(a2) {
		t.Fatal("test setup: activities should not be homologous")
	}
	g, ids := forked(t, schema, a1, a2)
	if _, err := Factorize(g, ids["u"], ids["a1"], ids["a2"]); err == nil || !IsRejection(err) {
		t.Fatalf("mismatched functionality schemata must reject factorization, got %v", err)
	}
}

// TestFactorizeMismatchedGenerationRejected: equal operations whose
// generated schemata disagree must not factorize either.
func TestFactorizeMismatchedGenerationRejected(t *testing.T) {
	schema := data.Schema{"K", "V"}
	a1 := threshold("V", 50)
	a2 := threshold("V", 50)
	a2.Gen = append(a2.Gen.Clone(), "AUDIT") // phantom generated attribute
	if a1.Homologous(a2) {
		t.Fatal("test setup: activities should not be homologous")
	}
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
	ids["tgt"] = g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: schema, IsTarget: true})
	g.MustAddEdge(ids["u"], ids["tgt"])
	if _, err := Factorize(g, ids["u"], ids["a1"], ids["a2"]); err == nil || !IsRejection(err) {
		t.Fatalf("mismatched generated schemata must reject factorization, got %v", err)
	}
}

// TestApplyRoundTripsMergeSplit drives MER and SPL through the Applied
// dispatcher (the trace-replay path) and checks the round trip restores
// the original signature.
func TestApplyRoundTripsMergeSplit(t *testing.T) {
	g, ids := chain(t, data.Schema{"A", "B"}, threshold("A", 1), threshold("B", 2))
	sig0 := g.Signature()

	mer, err := Apply(g, Applied{Op: "MER", Args: [3]workflow.NodeID{ids[0], ids[1]}, NArgs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mer.Applied.Op != "MER" || mer.Applied.NArgs != 2 {
		t.Fatalf("merge result carries %+v", mer.Applied)
	}
	var mID workflow.NodeID = -1
	for _, id := range mer.Graph.Activities() {
		if mer.Graph.Node(id).Act.Sem.Op == workflow.OpMerged {
			mID = id
		}
	}
	if mID < 0 {
		t.Fatal("no merged activity after MER")
	}
	spl, err := Apply(mer.Graph, Applied{Op: "SPL", Args: [3]workflow.NodeID{mID}, NArgs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := spl.Graph.Signature(); got != sig0 {
		t.Errorf("MER+SPL signature = %q, want %q", got, sig0)
	}
}

// TestApplyValidation: unknown ops and wrong arities are rejected, not
// dispatched.
func TestApplyValidation(t *testing.T) {
	g, ids := chain(t, data.Schema{"A", "B"}, threshold("A", 1), threshold("B", 2))
	if _, err := Apply(g, Applied{Op: "XXX", NArgs: 2}); err == nil {
		t.Error("unknown op must be rejected")
	}
	if _, err := Apply(g, Applied{Op: "SWA", Args: [3]workflow.NodeID{ids[0]}, NArgs: 1}); err == nil {
		t.Error("SWA with one argument must be rejected")
	}
}

// TestResultCarriesApplied: every transition's Result records the
// structured call that produced it, matching its description.
func TestResultCarriesApplied(t *testing.T) {
	g, ids := chain(t, data.Schema{"A", "B"}, threshold("A", 1), threshold("B", 2))
	res, err := Swap(g, ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	a := res.Applied
	if a.Op != "SWA" || a.NArgs != 2 || a.Args[0] != ids[0] || a.Args[1] != ids[1] {
		t.Errorf("swap applied = %+v", a)
	}
	want := "SWA(" + g.Node(ids[0]).Act.Tag + "," + g.Node(ids[1]).Act.Tag + ")"
	if a.Desc() != want || res.Description() != want {
		t.Errorf("desc %q, description %q, want %q", a.Desc(), res.Description(), want)
	}
	if got := a.ArgIDs(); len(got) != 2 || got[0] != ids[0] {
		t.Errorf("ArgIDs = %v", got)
	}
}
