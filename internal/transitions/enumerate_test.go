package transitions

import (
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/templates"
)

func TestEnumerateFig1(t *testing.T) {
	g := templates.Fig1Workflow()
	results := Enumerate(g)
	if len(results) == 0 {
		t.Fatal("Fig. 1 must have applicable transitions")
	}
	kinds := map[string]int{}
	for _, r := range results {
		kinds[r.Description()[:3]]++
		// Every enumerated state is valid and distinct from the input.
		if err := r.Graph.Validate(); err != nil {
			t.Errorf("%s produced invalid state: %v", r.Description(), err)
		}
		if r.Graph.Signature() == g.Signature() {
			t.Errorf("%s produced an identical state", r.Description())
		}
	}
	// Fig. 1 offers the γ↔A2E swap and the σ distribution at least.
	if kinds["SWA"] == 0 {
		t.Error("no swaps enumerated")
	}
	if kinds["DIS"] == 0 {
		t.Error("no distributions enumerated")
	}
}

func TestEnumerateDistinctSignatures(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Small, 21))
	if err != nil {
		t.Fatal(err)
	}
	results := Enumerate(sc.Graph)
	seen := map[string]string{}
	for _, r := range results {
		sig := r.Graph.Signature()
		if prev, dup := seen[sig]; dup {
			t.Errorf("transitions %s and %s produce the same signature %q", prev, r.Description(), sig)
		}
		seen[sig] = r.Description()
	}
}

func TestEnumerateDoesNotMutateInput(t *testing.T) {
	g := templates.Fig1Workflow()
	sig := g.Signature()
	Enumerate(g)
	if g.Signature() != sig {
		t.Error("Enumerate mutated its input graph")
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Errorf("input graph damaged: %v", err)
	}
}
