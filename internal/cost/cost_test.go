package cost

import (
	"math"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestFig4CostCases(t *testing.T) {
	// Fig. 4: two branches of n=8 rows; σ selectivity 50%; cost(SK) =
	// n·log₂n, cost(σ) = n. The paper's arithmetic (which ignores the cost
	// of U) gives c1=56, c2=32, c3=24. RowModel additionally charges the
	// union its input rows; subtracting that charge must reproduce the
	// paper's numbers exactly, and the full model must preserve the
	// figure's conclusion: both DIS and FAC beat the original.
	const n = 8.0
	costs := map[templates.Fig4Case]float64{}
	unionCharge := map[templates.Fig4Case]float64{}
	for _, c := range []templates.Fig4Case{templates.Fig4Original, templates.Fig4Distributed, templates.Fig4Factorized} {
		g := templates.Fig4Workflow(c, n)
		costing, err := Evaluate(g, RowModel{})
		if err != nil {
			t.Fatal(err)
		}
		costs[c] = costing.Total
		for _, id := range g.Activities() {
			if g.Node(id).Act.Sem.Op == workflow.OpUnion {
				unionCharge[c] = costing.Cost(id)
			}
		}
	}
	paper := map[templates.Fig4Case]float64{
		templates.Fig4Original:    56, // 2·8·log₂8 + 8 — matches the paper's c1
		templates.Fig4Distributed: 32, // 2·(8 + 4·log₂4) — matches the paper's c2
		// The single factorized SK processes the union's 8 surviving rows,
		// costing 8·log₂8 = 24, for 2·8 + 24 = 40. The paper's c3 formula
		// prices that SK at (n/2)·log₂(n/2) = 8 (treating each branch's
		// half as if processed alone), giving 24 — see
		// TestFig4PaperFormulas for the literal arithmetic. Either way the
		// figure's conclusion holds: FAC beats the original.
		templates.Fig4Factorized: 40,
	}
	for c, want := range paper {
		if got := costs[c] - unionCharge[c]; !almostEqual(got, want) {
			t.Errorf("case %v: cost without union charge = %v, want %v", c, got, want)
		}
	}
	if !(costs[templates.Fig4Distributed] < costs[templates.Fig4Original]) {
		t.Error("DIS should reduce the state cost (Fig. 4 case 2)")
	}
	if !(costs[templates.Fig4Factorized] < costs[templates.Fig4Original]) {
		t.Error("FAC should reduce the state cost (Fig. 4 case 3)")
	}
}

func TestFig4PaperFormulas(t *testing.T) {
	// The paper's literal arithmetic: c1 = 2n·log₂n + n = 56,
	// c2 = 2(n + (n/2)·log₂(n/2)) = 32, c3 = 2n + (n/2)·log₂(n/2) = 24.
	n := 8.0
	c1 := 2*n*math.Log2(n) + n
	c2 := 2 * (n + (n/2)*math.Log2(n/2))
	c3 := 2*n + (n/2)*math.Log2(n/2)
	if !almostEqual(c1, 56) || !almostEqual(c2, 32) || !almostEqual(c3, 24) {
		t.Errorf("paper formulas give %v, %v, %v; want 56, 32, 24", c1, c2, c3)
	}
}

func TestRowModelFormulas(t *testing.T) {
	m := RowModel{}
	in := []float64{1000}
	cases := []struct {
		act  *workflow.Activity
		cost float64
		out  float64
	}{
		{templates.Threshold("V", 1, 0.5), 1000, 500},
		{templates.NotNull(0.9, "V"), 1000, 900},
		{templates.ProjectOut("X"), 1000, 1000},
		{templates.Reformat("a2edate", "D"), 1000, 1000},
		{templates.PKCheck(0.8, "K"), 1000 * math.Log2(1000), 800},
		{templates.Distinct(0.7), 1000 * math.Log2(1000), 700},
		{templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "T", 0.3), 1000 * math.Log2(1000), 300},
		{templates.SurrogateKey("K", "SK", "L"), 1000 * math.Log2(1000), 1000},
	}
	for _, c := range cases {
		if got := m.ActivityCost(c.act, in); !almostEqual(got, c.cost) {
			t.Errorf("%s cost = %v, want %v", c.act.Name, got, c.cost)
		}
		if got := m.OutputRows(c.act, in); !almostEqual(got, c.out) {
			t.Errorf("%s out = %v, want %v", c.act.Name, got, c.out)
		}
	}
}

func TestRowModelBinaries(t *testing.T) {
	m := RowModel{}
	in := []float64{100, 200}
	u := templates.Union()
	if got := m.ActivityCost(u, in); !almostEqual(got, 300) {
		t.Errorf("union cost = %v", got)
	}
	if got := m.OutputRows(u, in); !almostEqual(got, 300) {
		t.Errorf("union out = %v", got)
	}
	j := templates.Join(0.01, "K")
	wantCost := 100*math.Log2(100) + 200*math.Log2(200)
	if got := m.ActivityCost(j, in); !almostEqual(got, wantCost) {
		t.Errorf("join cost = %v, want %v", got, wantCost)
	}
	if got := m.OutputRows(j, in); !almostEqual(got, 0.01*100*200) {
		t.Errorf("join out = %v", got)
	}
	d := templates.Diff(0.5, "K")
	if got := m.OutputRows(d, in); !almostEqual(got, 50) {
		t.Errorf("diff out = %v", got)
	}
}

func TestRowModelTinyInputs(t *testing.T) {
	m := RowModel{}
	sk := templates.SurrogateKey("K", "SK", "L")
	if got := m.ActivityCost(sk, []float64{1}); got != 0 {
		t.Errorf("n·log₂n at n=1 should be 0, got %v", got)
	}
	if got := m.ActivityCost(sk, []float64{0}); got != 0 {
		t.Errorf("n·log₂n at n=0 should be 0, got %v", got)
	}
}

func TestRowModelMergedComposition(t *testing.T) {
	// A merged σ;SK package costs σ(n) + SK(sel·n).
	sigma := templates.Threshold("V", 1, 0.5)
	sk := templates.SurrogateKey("K", "SK", "L")
	merged := &workflow.Activity{
		Sem: workflow.Semantics{Op: workflow.OpMerged, Components: []*workflow.Activity{sigma, sk}},
		Sel: 0.5,
	}
	m := RowModel{}
	want := 1000 + 500*math.Log2(500)
	if got := m.ActivityCost(merged, []float64{1000}); !almostEqual(got, want) {
		t.Errorf("merged cost = %v, want %v", got, want)
	}
	if got := m.OutputRows(merged, []float64{1000}); !almostEqual(got, 500) {
		t.Errorf("merged out = %v", got)
	}
}

func TestEvaluateFig1(t *testing.T) {
	g := templates.Fig1Workflow()
	c, err := Evaluate(g, RowModel{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total <= 0 {
		t.Fatalf("total = %v", c.Total)
	}
	// Source cardinalities propagate: PARTS1 has 1000, PARTS2 has 3000.
	sums := 0.0
	for _, id := range g.Sources() {
		sums += c.Card(id)
	}
	if !almostEqual(sums, 4000) {
		t.Errorf("source cards = %v", sums)
	}
	// The total is the sum of per-activity costs.
	var total float64
	for _, id := range c.Nodes() {
		total += c.Cost(id)
	}
	if !almostEqual(total, c.Total) {
		t.Errorf("Total %v != Σcosts %v", c.Total, total)
	}
}

func TestEvaluateIncrementalMatchesFull(t *testing.T) {
	// Swap two activities of Fig. 1's branch 2 and compare incremental
	// against full costing.
	g := templates.Fig1Workflow()
	base, err := Evaluate(g, RowModel{})
	if err != nil {
		t.Fatal(err)
	}

	// Manually swap A2E (5) and γ (6) on a clone.
	var a2e, agg workflow.NodeID
	for _, id := range g.Activities() {
		switch g.Node(id).Act.Sem.Op {
		case workflow.OpFunc:
			if g.Node(id).Act.InPlace() {
				a2e = id
			}
		case workflow.OpAggregate:
			agg = id
		}
	}
	c := g.Clone()
	p := c.Providers(a2e)[0]
	consumer := c.Consumers(agg)[0]
	c.MustReplaceProvider(consumer, agg, a2e)
	c.MustReplaceProvider(a2e, p, agg)
	c.MustReplaceProvider(agg, a2e, p)
	if _, err := c.RegenerateSchemataIncremental([]workflow.NodeID{a2e, agg}); err != nil {
		t.Fatal(err)
	}

	full, err := Evaluate(c, RowModel{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := EvaluateIncremental(base, c, RowModel{}, []workflow.NodeID{a2e, agg})
	if err != nil {
		t.Fatal(err)
	}
	// Bit-equal, not merely close: both sum Total in topological order.
	if full.Total != inc.Total {
		t.Errorf("incremental total %v != full total %v", inc.Total, full.Total)
	}
	if len(inc.Nodes()) != len(full.Nodes()) {
		t.Errorf("incremental costing covers %d nodes, full %d", len(inc.Nodes()), len(full.Nodes()))
	}
	for _, id := range full.Nodes() {
		if full.Cost(id) != inc.Cost(id) {
			t.Errorf("node %d: incremental cost %v != full %v", id, inc.Cost(id), full.Cost(id))
		}
		if full.Card(id) != inc.Card(id) {
			t.Errorf("node %d: incremental card %v != full %v", id, inc.Card(id), full.Card(id))
		}
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(200, 50); !almostEqual(got, 75) {
		t.Errorf("Improvement(200,50) = %v", got)
	}
	if got := Improvement(0, 50); got != 0 {
		t.Errorf("Improvement(0,·) = %v", got)
	}
	if got := Improvement(100, 120); !almostEqual(got, -20) {
		t.Errorf("negative improvement = %v", got)
	}
}

func TestCostingClone(t *testing.T) {
	g := templates.Fig1Workflow()
	c, err := Evaluate(g, RowModel{})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Clone()
	for _, id := range c.Nodes() {
		cl.costs[id] += 42
		cl.cards[id] += 42
		cl.has[id] = false
	}
	for _, id := range c.Nodes() {
		if c.Cost(id) == cl.costs[id] || c.Card(id) == cl.cards[id] || !c.Has(id) {
			t.Fatal("Clone shares storage")
		}
	}
}

func TestSwapChangesTotalCost(t *testing.T) {
	// Ordering by selectivity matters: σ(sel .2) before σ(sel .8) is
	// cheaper than the reverse under the row model.
	build := func(first, second *workflow.Activity) float64 {
		g := workflow.NewGraph()
		src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"A", "B"}, Rows: 1000, IsSource: true})
		f := g.AddActivity(first)
		s := g.AddActivity(second)
		tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"A", "B"}, IsTarget: true})
		g.MustAddEdge(src, f)
		g.MustAddEdge(f, s)
		g.MustAddEdge(s, tgt)
		if err := g.RegenerateSchemata(); err != nil {
			t.Fatal(err)
		}
		c, err := Evaluate(g, RowModel{})
		if err != nil {
			t.Fatal(err)
		}
		return c.Total
	}
	selective := templates.Threshold("A", 1, 0.2)
	loose := templates.Threshold("B", 1, 0.8)
	cheap := build(selective, loose)
	dear := build(loose, selective)
	if cheap >= dear {
		t.Errorf("selective-first should be cheaper: %v vs %v", cheap, dear)
	}
}
