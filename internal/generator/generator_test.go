package generator

import (
	"context"
	"slices"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/workflow"
)

func TestCategorySizes(t *testing.T) {
	// The paper's bands: small ≈ 15-25, medium ≈ 35-50, large ≈ 60-80
	// activities (§4.2 reports averages of 20/40/70).
	bands := map[Category][2]int{
		Small:  {10, 28},
		Medium: {30, 52},
		Large:  {55, 85},
	}
	for cat, band := range bands {
		for seed := int64(0); seed < 5; seed++ {
			sc, err := Generate(CategoryConfig(cat, seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", cat, seed, err)
			}
			n := len(sc.Graph.Activities())
			if n < band[0] || n > band[1] {
				t.Errorf("%s seed %d: %d activities outside band %v", cat, seed, n, band)
			}
		}
	}
}

func TestGeneratedWorkflowsValid(t *testing.T) {
	for _, cat := range []Category{Small, Medium, Large} {
		for seed := int64(0); seed < 4; seed++ {
			sc, err := Generate(CategoryConfig(cat, 40+seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Graph.Validate(); err != nil {
				t.Errorf("%s seed %d: %v", cat, seed, err)
			}
			if err := sc.Graph.CheckWellFormed(); err != nil {
				t.Errorf("%s seed %d: %v", cat, seed, err)
			}
		}
	}
}

func TestGeneratedWorkflowsExecutable(t *testing.T) {
	for _, cat := range []Category{Small, Medium, Large} {
		sc, err := Generate(CategoryConfig(cat, 7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.New(sc.Bind()).Run(context.Background(), sc.Graph)
		if err != nil {
			t.Fatalf("%s: execution failed: %v", cat, err)
		}
		if len(res.Targets) != 1 {
			t.Fatalf("%s: targets = %v", cat, res.Targets)
		}
		for name, rows := range res.Targets {
			if len(rows) == 0 {
				t.Errorf("%s: target %s received no rows — workload too selective to be interesting", cat, name)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := Generate(CategoryConfig(Medium, 123))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(CategoryConfig(Medium, 123))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.Signature() != b.Graph.Signature() {
		t.Error("same seed should generate identical workflows")
	}
	for name, rows := range a.Sources {
		if err := rows.SameMultiset(b.Sources[name]); err != nil {
			t.Errorf("source %s data differs across identical seeds: %v", name, err)
		}
	}
	c, err := Generate(CategoryConfig(Medium, 124))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.Signature() == c.Graph.Signature() {
		t.Error("different seeds should generate different workflows")
	}
}

func TestGeneratedStructureHasSearchMaterial(t *testing.T) {
	// The whole point of the suite: the transitions must have something to
	// chew on — converging branches, distributable activities, and (for
	// most seeds) homologous pairs.
	foundHomologous := false
	for seed := int64(0); seed < 6; seed++ {
		sc, err := Generate(CategoryConfig(Medium, 60+seed))
		if err != nil {
			t.Fatal(err)
		}
		g := sc.Graph
		binaries := 0
		for _, id := range g.Activities() {
			if g.Node(id).Act.IsBinary() {
				binaries++
			}
		}
		if binaries < 3 {
			t.Errorf("seed %d: only %d binary activities", seed, binaries)
		}
		if len(g.FindDistributableActivities()) == 0 {
			t.Errorf("seed %d: no distributable activities", seed)
		}
		if len(g.FindHomologousPairs()) > 0 {
			foundHomologous = true
		}
		if len(g.LocalGroups()) < 4 {
			t.Errorf("seed %d: only %d local groups", seed, len(g.LocalGroups()))
		}
	}
	if !foundHomologous {
		t.Error("no seed produced homologous pairs; factorization never exercised")
	}
}

func TestLookupsCoverKeyDomain(t *testing.T) {
	sc, err := Generate(CategoryConfig(Small, 3))
	if err != nil {
		t.Fatal(err)
	}
	sk := sc.Lookups["SKLOOKUP"]
	if len(sk) == 0 {
		t.Fatal("no surrogate-key lookup generated")
	}
	keys := map[uint64][]data.Value{} // the lookup's keys by their key hash
	for _, r := range sk {
		h := data.HashKey(r[:1], nil)
		keys[h] = append(keys[h], r[0])
	}
	for name, rows := range sc.Sources {
		schema := sc.Schemas[name]
		kpos := schema.Index("KEY")
		for _, r := range rows {
			if !slices.ContainsFunc(keys[data.HashKey(r[kpos:kpos+1], nil)], r[kpos].Equal) {
				t.Fatalf("source %s key %v missing from SK lookup", name, r[kpos])
			}
		}
	}
}

func TestSuiteCountsAndSeeds(t *testing.T) {
	suite, err := Suite(Small, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 3 {
		t.Fatalf("Suite returned %d scenarios", len(suite))
	}
	sigs := map[string]bool{}
	for _, sc := range suite {
		sigs[sc.Graph.Signature()] = true
	}
	if len(sigs) != 3 {
		t.Error("suite scenarios should differ from one another")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Branches: 1}); err == nil {
		t.Error("single-branch config should be rejected")
	}
}

func TestChainedBranchesAreRigid(t *testing.T) {
	// Small (chained) branches must contain dependency chains: a NN on a
	// raw attribute directly before its conversion.
	sc, err := Generate(CategoryConfig(Small, 11))
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Graph
	rigidPairs := 0
	for _, id := range g.Activities() {
		a := g.Node(id).Act
		if a.Sem.Op != workflow.OpFunc || !a.Sem.DropArgs {
			continue
		}
		preds := g.Providers(id)
		if len(preds) == 1 {
			if p := g.Node(preds[0]); p.Kind == workflow.KindActivity &&
				p.Act.Sem.Op == workflow.OpNotNull &&
				data.Schema(p.Act.Sem.Attrs).Equal(data.Schema(a.Sem.FnArgs)) {
				rigidPairs++
			}
		}
	}
	if rigidPairs == 0 {
		t.Error("chained small branches should contain NN(RAW)→convert chains")
	}
}
