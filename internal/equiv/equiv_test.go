package equiv

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"etlopt/internal/core"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

func TestConditionFig1(t *testing.T) {
	g := templates.Fig1Workflow()
	cond, err := Condition(g)
	if err != nil {
		t.Fatal(err)
	}
	// The workflow post-condition is the conjunction of all node
	// predicates in execution order (§3.4) — the paper's Cond_G for
	// Fig. 1 lists the recordsets, NN, $2€, A2E, γ_SUM, U and σ.
	for _, want := range []string{
		"PARTS1(PKEY,SOURCE,DATE,ECOST)",
		"PARTS2(PKEY,SOURCE,DATE,DEPT,DCOST)",
		"notnull(ECOST)",
		"dollar2euro(DCOST->ECOST_D!)",
		"a2edate(DATE->DATE)",
		"aggregate([PKEY,SOURCE,DATE];sum(ECOST_D)->ECOST)",
		"union()",
		"filter((ECOST>=100))",
		"DW.PARTS(PKEY,SOURCE,DATE,ECOST)",
	} {
		if !strings.Contains(cond, want) {
			t.Errorf("Cond_G missing %q:\n%s", want, cond)
		}
	}
	if !strings.Contains(cond, " ∧ ") {
		t.Error("Cond_G should be a conjunction")
	}
}

func TestEquivalentReflexive(t *testing.T) {
	g := templates.Fig1Workflow()
	ok, why, err := Equivalent(g, g.Clone())
	if err != nil || !ok {
		t.Errorf("workflow should be equivalent to its clone: %v %v", why, err)
	}
}

func TestEquivalentAfterTransitions(t *testing.T) {
	// Apply a chain of transitions and verify symbolic equivalence holds
	// at every step.
	g := templates.Fig1Workflow()
	groups := g.LocalGroups()
	var pair [2]workflow.NodeID
	found := false
	for _, grp := range groups {
		for i := 0; i+1 < len(grp); i++ {
			if _, err := transitions.Swap(g, grp[i], grp[i+1]); err == nil {
				pair = [2]workflow.NodeID{grp[i], grp[i+1]}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no legal swap in Fig. 1")
	}
	res, err := transitions.Swap(g, pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	ok, why, err := Equivalent(g, res.Graph)
	if err != nil || !ok {
		t.Errorf("swap broke symbolic equivalence: %v %v", why, err)
	}
}

func TestNotEquivalentDifferentPredicates(t *testing.T) {
	g1 := templates.Fig1Workflow()
	g2 := templates.Fig1Workflow()
	// Drop the selection from g2: post-conditions differ.
	var sigma workflow.NodeID
	for _, id := range g2.Activities() {
		if g2.Node(id).Act.Sem.Op == workflow.OpFilter {
			sigma = id
		}
	}
	p := g2.Providers(sigma)[0]
	c := g2.Consumers(sigma)[0]
	g2.MustReplaceProvider(c, sigma, p)
	g2.RemoveNode(sigma)
	if err := g2.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	ok, why, _ := Equivalent(g1, g2)
	if ok {
		t.Error("dropping a filter should break equivalence")
	}
	if !strings.Contains(why, "post-conditions differ") {
		t.Errorf("reason should cite post-conditions: %s", why)
	}
}

func TestNotEquivalentDifferentTargetSchema(t *testing.T) {
	g1 := templates.Fig1Workflow()
	g2 := templates.Fig1Workflow()
	for _, id := range g2.Targets() {
		g2.Node(id).RS.Schema = append(g2.Node(id).RS.Schema, "EXTRA")
	}
	if err := g2.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	ok, why, _ := Equivalent(g1, g2)
	if ok {
		t.Errorf("different target schemas should not be equivalent: %s", why)
	}
}

func TestVerifyEmpiricalFig1(t *testing.T) {
	sc := templates.Fig1Scenario(100, 300)
	ok, diff, err := VerifyEmpirical(sc.Graph, sc.Graph.Clone(), sc.Bind())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("identical workflows disagree empirically: %s", diff)
	}
}

func TestVerifyEmpiricalDetectsDifference(t *testing.T) {
	sc := templates.Fig1Scenario(100, 300)
	g2 := sc.Graph.Clone()
	// Weaken the threshold in the clone. Graph clones share activity
	// structure, so follow the clone-before-mutate discipline: replace the
	// node's activity with an edited copy instead of editing in place.
	for _, id := range g2.Activities() {
		n := g2.Node(id)
		if n.Act.Sem.Op == workflow.OpFilter {
			edited := n.Act.Clone()
			edited.Sem.Pred = templates.Threshold("ECOST", 0, 1).Sem.Pred
			n.Act = edited
		}
	}
	ok, diff, err := VerifyEmpirical(sc.Graph, g2, sc.Bind())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("weakened filter should change the output")
	}
	if diff == "" {
		t.Error("difference description should not be empty")
	}
}

// TestTransitionsPreserveOutputs is the central correctness property
// (Theorem 2, empirically): starting from generated executable workflows,
// every legal transition the search would take produces a state that loads
// exactly the same records into every target. A state is run in its SPL
// form, the graph a search returns: the engine runs no package.
func TestTransitionsPreserveOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 4; seed++ {
		cfg := generator.CategoryConfig(generator.Small, 1000+seed)
		cfg.DataRows = 60
		sc, err := generator.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cur := sc.Graph
		bindings := sc.Bind()
		// Walk a random chain of legal transitions, checking empirical
		// equivalence against the ORIGINAL state at every step.
		for step := 0; step < 6; step++ {
			var candidates []*transitions.Result
			for _, grp := range cur.LocalGroups() {
				for i := 0; i+1 < len(grp); i++ {
					if res, err := transitions.Swap(cur, grp[i], grp[i+1]); err == nil {
						candidates = append(candidates, res)
					}
				}
			}
			for _, hp := range cur.FindHomologousPairs() {
				if len(cur.Consumers(hp.A)) == 1 && cur.Consumers(hp.A)[0] == hp.Binary &&
					len(cur.Consumers(hp.B)) == 1 && cur.Consumers(hp.B)[0] == hp.Binary {
					if res, err := transitions.Factorize(cur, hp.Binary, hp.A, hp.B); err == nil {
						candidates = append(candidates, res)
					}
				}
			}
			for _, da := range cur.FindDistributableActivities() {
				if len(cur.Providers(da.Activity)) == 1 && cur.Providers(da.Activity)[0] == da.Binary {
					if res, err := transitions.Distribute(cur, da.Binary, da.Activity); err == nil {
						candidates = append(candidates, res)
					}
				}
			}
			// Merges too: package a random adjacent pair.
			for _, grp := range cur.LocalGroups() {
				for i := 0; i+1 < len(grp); i++ {
					if res, err := transitions.Merge(cur, grp[i], grp[i+1]); err == nil {
						candidates = append(candidates, res)
					}
				}
			}
			if len(candidates) == 0 {
				break
			}
			pick := candidates[rng.Intn(len(candidates))]
			flat, _, err := transitions.SplitAll(pick.Graph)
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, pick.Description(), err)
			}
			ok, diff, err := VerifyEmpirical(sc.Graph, flat, bindings)
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, pick.Description(), err)
			}
			if !ok {
				t.Fatalf("seed %d step %d: transition %s changed the output: %s",
					seed, step, pick.Description(), diff)
			}
			cur = pick.Graph
		}
	}
}

// TestRejectedSwapsWouldChangeOutputs sharpens the guards' value: for the
// canonical rejection cases, force the illegal rewrite anyway and verify
// the output really would change — i.e. the rules are not merely
// conservative in these instances.
func TestRejectedSwapsWouldChangeOutputs(t *testing.T) {
	sc := templates.Fig1Scenario(100, 300)
	g := sc.Graph
	// σ(ECOST≥100) before the aggregation: force the rewrite by hand.
	var sigma, agg workflow.NodeID
	for _, id := range g.Activities() {
		switch g.Node(id).Act.Sem.Op {
		case workflow.OpFilter:
			sigma = id
		case workflow.OpAggregate:
			agg = id
		}
	}
	_ = sigma
	// Build an illegal variant: copy the filter to just below $2€ in
	// branch 2 and remove the post-union occurrence, re-keyed to the
	// daily euro cost attribute so the graph still type-checks.
	bad := g.Clone()
	ill := templates.Threshold("ECOST_D", 100, 0.5)
	id := bad.AddActivity(ill)
	p := bad.Providers(agg)[0] // A2E
	bad.MustReplaceProvider(agg, p, id)
	bad.MustAddEdge(p, id)
	// Remove the original filter.
	fp := bad.Providers(sigma)[0]
	fc := bad.Consumers(sigma)[0]
	bad.MustReplaceProvider(fc, sigma, fp)
	bad.RemoveNode(sigma)
	if err := bad.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	ok, _, err := VerifyEmpirical(g, bad, sc.Bind())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("pushing the Euro threshold below the aggregation should change results; the swap guard is load-bearing")
	}
}

// TestOptimizedPlanKeepsIDsFloatCannotTell: DISTINCT then σ(ID = 2⁵³+1)
// over the ids 2⁵³ and 2⁵³+1, which float64 rounds to one number. The
// heuristic search swaps the two activities; both plans must load the
// second row.
func TestOptimizedPlanKeepsIDsFloatCannotTell(t *testing.T) {
	g, err := dsl.Parse(`
recordset SRC source rows=2 schema=ID,V
activity a1 distinct sel=0.9
activity a2 filter pred="(ID=9007199254740993)" sel=0.5
recordset DW.T target schema=ID,V
flow SRC -> a1
flow a1 -> a2
flow a2 -> DW.T
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Heuristic(context.Background(), g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := data.Rows{{data.NewInt(1 << 53), data.NewString("x")}, {data.NewInt(1<<53 + 1), data.NewString("x")}}
	bind := map[string]data.Recordset{"SRC": data.NewMemoryRecordset("SRC", data.Schema{"ID", "V"}).MustLoad(rows)}
	ok, diff, err := VerifyEmpirical(g, res.Best, bind)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("the optimized plan loads other rows: %s", diff)
	}
	run, err := engine.New(bind).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Targets["DW.T"]; len(got) != 1 || got[0][0].Int() != 1<<53+1 {
		t.Errorf("the written plan loads %v, want (9007199254740993, x)", got)
	}
}
