// Package etlopt's root benchmark harness regenerates every table and
// figure of the paper's evaluation (§4.2) as testing.B benchmarks, plus
// the ablation studies called out in DESIGN.md:
//
//	BenchmarkFig1Scenario/*    — the Fig. 1 → Fig. 2 motivating example
//	BenchmarkFig4/*            — the Fig. 4 cost cases (DIS and FAC wins)
//	BenchmarkTable1and2/*      — Tables 1 and 2 per category & algorithm
//	                             (quality %, improvement %, visited states)
//	BenchmarkAblation*         — dedup, incremental costing, Phase I, merge
//	BenchmarkParallelEngine/*  — A5: materialized vs parallel at P ∈ {1, 2, 4, 8}
//	BenchmarkTransitionOps/*   — per-transition micro-costs
//	BenchmarkTopoSort, BenchmarkEvaluate{Full,Incremental}
//	                           — the per-state constants of the search
//	BenchmarkGroupDedupe/*     — a duplicate swap attempt of a local group's search
//
// Absolute times are hardware-bound; the paper-facing outputs are the
// custom metrics (improvement%, quality%, states) reported per benchmark.
package etlopt

import (
	"context"
	"fmt"
	"io"
	"testing"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// BenchmarkFig1Scenario optimizes the paper's motivating workflow with
// each algorithm. All three find the Fig. 2 optimum; the metric of
// interest is the visited-state count and time per algorithm.
func BenchmarkFig1Scenario(b *testing.B) {
	algos := map[string]func(context.Context, *workflow.Graph, core.Options) (*core.Result, error){
		"ES":       core.Exhaustive,
		"HS":       core.Heuristic,
		"HSGreedy": core.HSGreedy,
	}
	for name, algo := range algos {
		b.Run(name, func(b *testing.B) {
			g := templates.Fig1Workflow()
			var res *core.Result
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = algo(context.Background(), g, core.Options{MaxStates: 20_000, IncrementalCost: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Improvement(), "improvement%")
			b.ReportMetric(float64(res.Visited), "states")
		})
	}
}

// BenchmarkFig4 evaluates the three Fig. 4 placements under the row model;
// the reported costs reproduce the figure's ordering (original > factorized
// > distributed under the full model; the paper's arithmetic is asserted
// exactly in the cost package's tests).
func BenchmarkFig4(b *testing.B) {
	cases := map[string]templates.Fig4Case{
		"Original":    templates.Fig4Original,
		"Distributed": templates.Fig4Distributed,
		"Factorized":  templates.Fig4Factorized,
	}
	for name, c := range cases {
		b.Run(name, func(b *testing.B) {
			g := templates.Fig4Workflow(c, 8)
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				costing, err := cost.Evaluate(g, cost.RowModel{})
				if err != nil {
					b.Fatal(err)
				}
				total = costing.Total
			}
			b.ReportMetric(total, "state-cost")
		})
	}
}

// benchCategory runs one representative workflow of a category through all
// three algorithms and reports the Table 1 / Table 2 metrics. Budgets are
// scaled down from the full suite (use cmd/etlbench for the 40-workflow
// reproduction); the orderings the paper reports — ES states ≫ HS ≫ HSG,
// HS quality ≥ HSG — hold at this scale too.
func benchCategory(b *testing.B, cat generator.Category, esBudget, hsBudget int) {
	sc, err := generator.Generate(generator.CategoryConfig(cat, 20050405))
	if err != nil {
		b.Fatal(err)
	}
	type algo struct {
		name string
		run  func(context.Context, *workflow.Graph, core.Options) (*core.Result, error)
		opts core.Options
	}
	algos := []algo{
		{"ES", core.Exhaustive, core.Options{MaxStates: esBudget, IncrementalCost: true}},
		{"HS", core.Heuristic, core.Options{MaxStates: hsBudget, IncrementalCost: true}},
		{"HSGreedy", core.HSGreedy, core.Options{MaxStates: hsBudget, IncrementalCost: true}},
	}
	var esImprovement float64
	for _, a := range algos {
		a := a
		b.Run(a.name, func(b *testing.B) {
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = a.run(context.Background(), sc.Graph, a.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			if a.name == "ES" {
				esImprovement = res.Improvement()
			}
			b.ReportMetric(res.Improvement(), "improvement%")
			b.ReportMetric(float64(res.Visited), "states")
			if a.name != "ES" && esImprovement > 0 {
				b.ReportMetric(100*res.Improvement()/esImprovement, "quality%")
			}
		})
	}
}

// BenchmarkTable1and2 regenerates the per-category measurements behind
// Tables 1 and 2.
func BenchmarkTable1and2(b *testing.B) {
	b.Run("small", func(b *testing.B) { benchCategory(b, generator.Small, 20_000, 6_000) })
	b.Run("medium", func(b *testing.B) { benchCategory(b, generator.Medium, 20_000, 8_000) })
	b.Run("large", func(b *testing.B) { benchCategory(b, generator.Large, 20_000, 10_000) })
}

// BenchmarkAblationDedup measures A1: signature-based duplicate detection
// versus none, on a budgeted ES over the Fig. 1 workflow. Without dedup the
// same states are regenerated and re-costed.
func BenchmarkAblationDedup(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"WithDedup", false}, {"NoDedup", true}} {
		b.Run(mode.name, func(b *testing.B) {
			g := templates.Fig1Workflow()
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.Exhaustive(context.Background(), g, core.Options{
					MaxStates: 5_000, IncrementalCost: true, DisableDedup: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Generated), "generated")
			b.ReportMetric(float64(res.Visited), "distinct")
			b.ReportMetric(boolMetric(res.Terminated), "terminated")
			b.ReportMetric(res.Improvement(), "improvement%")
		})
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkAblationIncrementalCost measures A2: the §4.1 semi-incremental
// cost evaluation versus full recomputation, over the same HS run.
func BenchmarkAblationIncrementalCost(b *testing.B) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 31))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		inc  bool
	}{{"Incremental", true}, {"Full", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Heuristic(context.Background(), sc.Graph, core.Options{
					MaxStates: 4_000, IncrementalCost: mode.inc,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Improvement(), "improvement%")
		})
	}
}

// BenchmarkAblationPhaseI measures A3: HS with and without Phase I (the
// paper argues the phase pays for itself despite Phase IV's repetition).
func BenchmarkAblationPhaseI(b *testing.B) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 32))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"WithPhaseI", false}, {"NoPhaseI", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Heuristic(context.Background(), sc.Graph, core.Options{
					MaxStates: 6_000, IncrementalCost: true, DisablePhaseI: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Improvement(), "improvement%")
			b.ReportMetric(float64(res.Visited), "states")
		})
	}
}

// BenchmarkAblationMerge measures A4: merge constraints (Heuristic 3)
// proactively shrink the search space.
func BenchmarkAblationMerge(b *testing.B) {
	g := templates.Fig1Workflow()
	// Merge $2€ with A2E in branch 2.
	var d2e, a2e workflow.NodeID
	for _, id := range g.Activities() {
		a := g.Node(id).Act
		if a.Sem.Op == workflow.OpFunc && a.Sem.DropArgs {
			d2e = id
		}
		if a.Sem.Op == workflow.OpFunc && a.InPlace() {
			a2e = id
		}
	}
	for _, mode := range []struct {
		name  string
		pairs [][2]workflow.NodeID
	}{
		{"NoConstraints", nil},
		{"MergeConstrained", [][2]workflow.NodeID{{d2e, a2e}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Heuristic(context.Background(), g, core.Options{
					IncrementalCost: true, MergeConstraints: mode.pairs,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Visited), "states")
			b.ReportMetric(res.Improvement(), "improvement%")
		})
	}
}

// BenchmarkParallelEngine measures the partition-parallel engine on a
// large scenario with scaled-up data at P ∈ {1, 2, 4, 8}. The reported
// speedup metric is wall clock relative to P=1; the acceptance bar is ×2
// at P=4.
func BenchmarkParallelEngine(b *testing.B) {
	cfg := generator.CategoryConfig(generator.Large, 33)
	cfg.DataRows = 30_000
	sc, err := generator.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	bindings := sc.Bind()
	var p1 float64 // b.N-normalized ns/op at P=1
	run := func(b *testing.B, e *engine.Engine) float64 {
		var rows int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Run(context.Background(), sc.Graph)
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range res.Targets {
				rows = len(t)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(rows), "target-rows")
		return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			nsOp := run(b, engine.New(bindings, engine.WithPartitions(p)))
			if p == 1 {
				p1 = nsOp
			}
			if p1 > 0 && nsOp > 0 {
				b.ReportMetric(p1/nsOp, "speedup-vs-p1")
			}
		})
	}
}

// BenchmarkTransitionOps measures the per-transition cost of the rewrite
// machinery itself (clone + rewire + incremental schema regeneration +
// checks) — the inner loop of every search.
func BenchmarkTransitionOps(b *testing.B) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 34))
	if err != nil {
		b.Fatal(err)
	}
	g := sc.Graph

	var swapPair [2]workflow.NodeID
	for _, grp := range g.LocalGroups() {
		for i := 0; i+1 < len(grp); i++ {
			if _, err := transitions.Swap(g, grp[i], grp[i+1]); err == nil {
				swapPair = [2]workflow.NodeID{grp[i], grp[i+1]}
			}
		}
	}
	b.Run("Swap", func(b *testing.B) {
		if swapPair[0] == 0 {
			b.Skip("no legal swap")
		}
		for i := 0; i < b.N; i++ {
			if _, err := transitions.Swap(g, swapPair[0], swapPair[1]); err != nil {
				b.Fatal(err)
			}
		}
	})

	var da workflow.DistributableActivity
	for _, d := range g.FindDistributableActivities() {
		if len(g.Providers(d.Activity)) == 1 && g.Providers(d.Activity)[0] == d.Binary {
			da = d
		}
	}
	b.Run("Distribute", func(b *testing.B) {
		if da.Activity == 0 {
			b.Skip("no adjacent distributable activity")
		}
		for i := 0; i < b.N; i++ {
			if _, err := transitions.Distribute(g, da.Binary, da.Activity); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Signature", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.Signature() == "" {
				b.Fatal("empty signature")
			}
		}
	})

	b.Run("Clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.Clone().Len() != g.Len() {
				b.Fatal("clone lost nodes")
			}
		}
	})
}

// largeWorkflow is the large generator workflow the repo benchmark's
// search workloads are built from.
func largeWorkflow(b *testing.B) *workflow.Graph {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Large, 20050405))
	if err != nil {
		b.Fatal(err)
	}
	return sc.Graph
}

// BenchmarkTopoSort measures an uncached topological sort: each iteration
// sorts a fresh Mutate child with the inherited order dropped, the state a
// rewritten successor is in.
func BenchmarkTopoSort(b *testing.B) {
	g := largeWorkflow(b)
	a := g.Activities()[0]
	p := g.Providers(a)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := g.Mutate()
		c.MustReplaceProvider(a, p, p) // a no-op rewiring still invalidates the memo
		b.StartTimer()
		if _, err := c.TopoSort(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateFull and BenchmarkEvaluateIncremental are the two arms
// of ablation A2 (EXPERIMENTS.md) on the large workflow: costing a state
// from scratch against re-costing it from its parent's costing with two
// dirty activities in the middle of the flow, as a swap leaves them.
func BenchmarkEvaluateFull(b *testing.B) {
	g := largeWorkflow(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cost.Evaluate(g, cost.RowModel{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateIncremental(b *testing.B) {
	g := largeWorkflow(b)
	base, err := cost.Evaluate(g, cost.RowModel{})
	if err != nil {
		b.Fatal(err)
	}
	acts := g.Activities()
	dirty := acts[len(acts)/2 : len(acts)/2+2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cost.EvaluateIncremental(base, g, cost.RowModel{}, dirty); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupDedupe measures what a local group's search pays for a
// swap that leads to a state it has already seen — on `search-deep` two
// attempts in three — on the larger of that workload's large workflows and
// its longest group: the successor's signature spliced from the parent's
// and probed in the seen-set. "located" splices into a reused buffer at
// the site the job's first splice located (what core.groupJob does);
// "one-shot" locates per attempt and makes a string, which is what every
// attempt cost before the site existed.
func BenchmarkGroupDedupe(b *testing.B) {
	large, err := generator.Suite(generator.Large, 2, 20050405)
	if err != nil {
		b.Fatal(err)
	}
	g := large[0].Graph
	if large[1].Graph.Len() > g.Len() {
		g = large[1].Graph
	}
	var grp workflow.LocalGroup
	for _, c := range g.LocalGroups() {
		if len(c) > len(grp) {
			grp = c
		}
	}
	sig := g.Signature()
	oldSeg, newSeg, _ := transitions.SwapSegments(g, grp[0], grp[1])
	site, ok := workflow.LocateSplice(sig, oldSeg, true)
	child, spliced := site.Splice(sig, oldSeg, newSeg)
	if !ok || !spliced {
		b.Fatalf("no exact splice of %s in %s", oldSeg, sig)
	}
	seen := map[string]bool{sig: true, child: true}
	buf := make([]byte, 0, len(sig))
	for _, c := range []struct {
		name  string
		probe func() bool // reports whether the splice is the seen child
	}{
		{"located", func() bool {
			got, ok := site.AppendSplice(buf[:0], sig, oldSeg, newSeg)
			return ok && seen[string(got)]
		}},
		{"one-shot", func() bool {
			got, ok := workflow.SpliceSignature(sig, oldSeg, newSeg, true)
			return ok && seen[got]
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.probe() {
					b.Fatal("the splice is not the seen child")
				}
			}
		})
	}
}

// BenchmarkSignatureScaling reports signature cost by workflow size.
func BenchmarkSignatureScaling(b *testing.B) {
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		sc, err := generator.Generate(generator.CategoryConfig(cat, 35))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%dacts", cat, len(sc.Graph.Activities())), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sc.Graph.Signature()
			}
		})
	}
}

// BenchmarkParallelES measures the parallel search's scaling: the same
// budgeted ES run at 1, 2, 4 and 8 workers. Results (best cost, visited
// states) are identical at every width by construction — the benchmark
// asserts it — so the only thing that varies is wall-clock time. Speedup
// is bounded by how much of the search is successor costing (the
// parallel fraction) and by the machine's core count.
func BenchmarkParallelES(b *testing.B) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 20050405))
	if err != nil {
		b.Fatal(err)
	}
	ref, err := core.Exhaustive(context.Background(), sc.Graph, core.Options{
		MaxStates: 4_000, IncrementalCost: true, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, err = core.Exhaustive(context.Background(), sc.Graph, core.Options{
					MaxStates: 4_000, IncrementalCost: true, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if res.BestCost != ref.BestCost || res.Visited != ref.Visited {
				b.Fatalf("workers=%d changed the result: (%v,%d) vs (%v,%d)",
					workers, res.BestCost, res.Visited, ref.BestCost, ref.Visited)
			}
			b.ReportMetric(float64(res.Visited), "states")
		})
	}
}

// BenchmarkParallelHS is the HS counterpart: local groups optimized
// concurrently, identical results at every worker count.
func BenchmarkParallelHS(b *testing.B) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Large, 20050405))
	if err != nil {
		b.Fatal(err)
	}
	ref, err := core.Heuristic(context.Background(), sc.Graph, core.Options{
		MaxStates: 10_000, IncrementalCost: true, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, err = core.Heuristic(context.Background(), sc.Graph, core.Options{
					MaxStates: 10_000, IncrementalCost: true, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if res.BestCost != ref.BestCost || res.Visited != ref.Visited {
				b.Fatalf("workers=%d changed the result: (%v,%d) vs (%v,%d)",
					workers, res.BestCost, res.Visited, ref.BestCost, ref.Visited)
			}
			b.ReportMetric(res.Improvement(), "improvement%")
		})
	}
}

// BenchmarkObsOverhead guards the observability overhead budget: with
// metrics disabled (Off), ES and HS must run within noise of the
// uninstrumented baseline — the hot paths see exactly one nil check per
// event — which is what keeps BenchmarkParallelES/HS from regressing.
// With metrics enabled (On), the atomic counters and gauges price the
// full instrumentation. Results must be identical either way.
func BenchmarkObsOverhead(b *testing.B) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 20050405))
	if err != nil {
		b.Fatal(err)
	}
	algos := []struct {
		name string
		run  func(context.Context, *workflow.Graph, core.Options) (*core.Result, error)
		max  int
	}{
		{"ES", core.Exhaustive, 4_000},
		{"HS", core.Heuristic, 10_000},
	}
	for _, algo := range algos {
		ref, err := algo.run(context.Background(), sc.Graph, core.Options{
			MaxStates: algo.max, IncrementalCost: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, on := range []bool{false, true} {
			label := algo.name + "/Off"
			if on {
				label = algo.name + "/On"
			}
			b.Run(label, func(b *testing.B) {
				var res *core.Result
				for i := 0; i < b.N; i++ {
					opts := core.Options{MaxStates: algo.max, IncrementalCost: true}
					if on {
						opts.Journal = obs.NewJournal(io.Discard, obs.NewRegistry())
					}
					var err error
					res, err = algo.run(context.Background(), sc.Graph, opts)
					opts.Journal.Close()
					if err != nil {
						b.Fatal(err)
					}
				}
				if res.BestCost != ref.BestCost || res.Visited != ref.Visited {
					b.Fatalf("metrics=%v changed the result: (%v,%d) vs (%v,%d)",
						on, res.BestCost, res.Visited, ref.BestCost, ref.Visited)
				}
				b.ReportMetric(float64(res.Visited), "states")
			})
		}
	}
}

// BenchmarkJournalOverhead prices the flight recorder against the same
// search with recording off. The Off arm is the zero-cost contract — a
// nil *Journal must leave the hot path untouched — and the On arm
// (journal draining to io.Discard) is the worst-case emission rate: one
// event per transition attempt plus cache lookups. Both arms must visit
// the identical states and find the identical cost.
func BenchmarkJournalOverhead(b *testing.B) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 20050405))
	if err != nil {
		b.Fatal(err)
	}
	const maxStates = 10_000
	ref, err := core.Heuristic(context.Background(), sc.Graph, core.Options{
		MaxStates: maxStates, IncrementalCost: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		label := "HS/Off"
		if on {
			label = "HS/On"
		}
		b.Run(label, func(b *testing.B) {
			var res *core.Result
			var events int64
			for i := 0; i < b.N; i++ {
				opts := core.Options{MaxStates: maxStates, IncrementalCost: true}
				var j *obs.Journal
				if on {
					j = obs.NewJournal(io.Discard, nil)
					opts.Journal = j
				}
				var err error
				res, err = core.Heuristic(context.Background(), sc.Graph, opts)
				if err != nil {
					b.Fatal(err)
				}
				if on {
					if err := j.Close(); err != nil {
						b.Fatal(err)
					}
					events = j.Written() + j.Dropped()
				}
			}
			if res.BestCost != ref.BestCost || res.Visited != ref.Visited {
				b.Fatalf("journal=%v changed the result: (%v,%d) vs (%v,%d)",
					on, res.BestCost, res.Visited, ref.BestCost, ref.Visited)
			}
			b.ReportMetric(float64(res.Visited), "states")
			if on {
				b.ReportMetric(float64(events), "events")
			}
		})
	}
}
