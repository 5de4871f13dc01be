// Partsupply reproduces the paper's running example end to end: the
// Fig. 1 workflow (monthly Euro costs from S1, daily Dollar costs from
// S2) over reference attribute names, the exhaustive optimization that
// rediscovers Fig. 2, and the empirical proof that both workflows load
// the same records.
package main

import (
	"context"
	"fmt"
	"log"

	"etlopt/internal/core"
	"etlopt/internal/engine"
	"etlopt/internal/equiv"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

func main() {
	// The Fig. 1 workflow over reference names (§3.1): the homonyms
	// PARTS1.COST (Euros) and PARTS2.COST (Dollars) are ECOST and DCOST.
	// Graph.CheckWellFormed (a generated name already flowing in) and
	// `etlvet workflow`'s shadowed-reference pass (join inputs sharing a
	// name) check that one reference name denotes one entity.
	sc := templates.Fig1Scenario(400, 1200)
	g := sc.Graph
	fmt.Println("Fig. 1 workflow (signature", g.Signature()+"):")
	fmt.Print(g)

	// Optimize exhaustively — the space is small enough to close.
	res, err := core.Exhaustive(context.Background(), g, core.Options{MaxStates: 50_000, IncrementalCost: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nES closed the space: %v (%d distinct states)\n", res.Terminated, res.Visited)
	fmt.Printf("cost %.0f -> %.0f (%.1f%% improvement)\n",
		res.InitialCost, res.BestCost, res.Improvement())
	fmt.Println("transition path to the optimum:")
	for _, st := range res.Steps {
		fmt.Println("  " + st.Desc)
	}
	fmt.Println("\noptimized workflow (the Fig. 2 shape):")
	fmt.Print(res.Best)

	describeFig2(res.Best)

	// Execute both workflows on the generated supplier data.
	bindings := sc.Bind()
	run, err := engine.New(bindings).Run(context.Background(), res.Best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwarehouse rows loaded: %d\n", len(run.Targets["DW.PARTS"]))
	for i, r := range run.Targets["DW.PARTS"] {
		if i == 5 {
			fmt.Println("   ...")
			break
		}
		fmt.Println("  ", r)
	}

	ok, diff, err := equiv.VerifyEmpirical(g, res.Best, bindings)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatalf("optimized workflow diverged: %s", diff)
	}
	fmt.Println("\nFig. 1 and the optimized workflow load identical records ✓")

	// The symbolic check of §3.4 agrees.
	cond, err := equiv.Condition(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nworkflow post-condition Cond_G:")
	fmt.Println("  " + cond)
}

// describeFig2 reports the two rewrites the paper highlights.
func describeFig2(best *workflow.Graph) {
	filters := 0
	var aggPos, a2ePos int
	order, _ := best.TopoSort()
	for i, id := range order {
		n := best.Node(id)
		if n.Kind != workflow.KindActivity {
			continue
		}
		switch {
		case n.Act.Sem.Op == workflow.OpFilter:
			filters++
		case n.Act.Sem.Op == workflow.OpAggregate:
			aggPos = i
		case n.Act.Sem.Op == workflow.OpFunc && n.Act.InPlace():
			a2ePos = i
		}
	}
	fmt.Println("\nFig. 2 rewrites found by the optimizer:")
	fmt.Printf("  - σ(ECOST≥100) distributed into both branches: %v (%d filter instances)\n",
		filters == 2, filters)
	fmt.Printf("  - aggregation swapped before the A2E date reformat: %v\n", aggPos < a2ePos)
}
