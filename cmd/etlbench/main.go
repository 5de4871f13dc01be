// Command etlbench regenerates the paper's evaluation: Table 1 (quality of
// solution), Table 2 (visited states / improvement / execution time) and
// the §4.2 prose claims, over a synthetic reproduction of the 40-workflow
// suite. It also regenerates the Fig. 4 cost arithmetic on demand.
//
// Usage:
//
//	etlbench                 # full suite (40 workflows), both tables + claims
//	etlbench -counts 4,3,3   # a quicker suite
//	etlbench -fig4           # only the Fig. 4 cost cases
//	etlbench -verify         # also validate every optimized workflow on data
//	etlbench -ablations      # the DESIGN.md ablation studies A1-A4
//	etlbench -lint           # design checks over the generated suite
//
// Flag vocabulary (shared across etlrun, etlopt and etlbench): -workers
// controls optimizer search parallelism. Engine data parallelism is
// etlrun's -partitions and has no flag here: Table 2's exec column runs
// the materialized engine, and engine performance is measured by
// benchmark/run.sh, not by this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"etlopt/internal/analysis"
	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/dsl"
	"etlopt/internal/experiments"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/stats"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etlbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		counts    = flag.String("counts", "14,13,13", "workflows per category: small,medium,large")
		seed      = flag.Int64("seed", 20050405, "base random seed (ICDE 2005 started April 5)")
		esBudget  = flag.Int("esbudget", 60_000, "ES state budget per workflow")
		hsBudget  = flag.Int("hsbudget", 30_000, "HS state budget per workflow")
		workers   = flag.Int("workers", 0, "optimizer search parallelism (0 = all CPUs, 1 = sequential; same results either way)")
		verify    = flag.Bool("verify", false, "validate every optimized workflow on generated data")
		fig4      = flag.Bool("fig4", false, "print only the Fig. 4 cost cases")
		ablations = flag.Bool("ablations", false, "run the DESIGN.md ablation studies and exit")
		lintOnly  = flag.Bool("lint", false, "run the design checks over the generated suite and exit (warnings exit nonzero)")
		quiet     = flag.Bool("quiet", false, "suppress per-workflow progress")
		metrics   = flag.String("metrics", "", "write a JSON metrics snapshot of the whole suite here (auditable with etlvet metrics)")
		journal   = flag.String("journal", "", "record a structured run journal of the whole suite here (JSONL flight recorder; etlvet obs reports it, etlvet obs -format trace writes its spans)")
	)
	flag.Parse()

	if *fig4 {
		return printFig4()
	}
	if *ablations {
		return runAblations(*seed)
	}

	parts := strings.Split(*counts, ",")
	if len(parts) != 3 {
		return fmt.Errorf("-counts wants three comma-separated numbers, got %q", *counts)
	}
	countMap := map[generator.Category]int{}
	for i, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		n, err := strconv.Atoi(strings.TrimSpace(parts[i]))
		if err != nil {
			return fmt.Errorf("-counts: %v", err)
		}
		countMap[cat] = n
	}

	if *lintOnly {
		return lintSuite(countMap, *seed)
	}

	cfg := experiments.SuiteConfig{
		Seed:     *seed,
		Counts:   countMap,
		ESBudget: *esBudget,
		HSBudget: *hsBudget,
		Workers:  *workers,
		Verify:   *verify,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *metrics != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	var jnl *obs.Journal
	if *journal != "" {
		var err error
		jnl, err = obs.NewJournalFile(*journal, cfg.Metrics)
		if err != nil {
			return err
		}
		defer jnl.Close()
		cfg.Journal = jnl
	}
	results, err := experiments.RunSuite(context.Background(), cfg)
	if err != nil {
		return err
	}
	if *metrics != "" {
		if err := cfg.Metrics.Snapshot().WriteJSONFile(*metrics); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", *metrics)
	}
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "etlbench: journal:", err)
		}
		fmt.Fprintf(os.Stderr, "run journal written to %s (%d events, %d dropped)\n",
			*journal, jnl.Written(), jnl.Dropped())
	}

	fmt.Println("Table 1: quality of solution (avg % of best-ES improvement)")
	fmt.Println(experiments.Table1(results))
	fmt.Println("Table 2: execution time, number of visited states and improvement wrt the initial state")
	fmt.Println(experiments.Table2(results))
	fmt.Println("§4.2 claims:")
	fmt.Println(experiments.Claims(results))
	return nil
}

// lintSuite runs the workflow design checks over every generated suite
// workflow, sharing the same finding output and exit-code semantics as
// `etlopt -lint` and `etlrun -lint`: warnings exit nonzero, advice does
// not.
func lintSuite(counts map[generator.Category]int, seed int64) error {
	warnings := 0
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		n := counts[cat]
		if n == 0 {
			continue
		}
		scenarios, err := generator.Suite(cat, n, seed+int64(cat)*104729)
		if err != nil {
			return err
		}
		for i, sc := range scenarios {
			fmt.Printf("%s #%02d:\n", cat, i+1)
			w, err := analysis.RunLint(os.Stdout, sc.Graph, dsl.NodeNames(sc.Graph))
			if err != nil {
				return fmt.Errorf("%s workflow %d: %w", cat, i+1, err)
			}
			warnings += w
		}
	}
	if warnings > 0 {
		return fmt.Errorf("%d warning(s)", warnings)
	}
	return nil
}

// printFig4 reproduces the Fig. 4 example: the cost of the original,
// distributed and factorized placements of a selection and surrogate-key
// assignment around a union, both with the paper's literal formulas
// (c1=56, c2=32, c3=24 at n=8) and under this library's cost model.
func printFig4() error {
	const n = 8.0
	log2 := func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		l := 0.0
		for v := x; v > 1; v /= 2 {
			l++
		}
		return l
	}
	fmt.Println("Fig. 4 paper arithmetic (n=8, σ sel 50%, cost(SK)=n·log2 n, cost(σ)=n):")
	fmt.Printf("  c1 = 2n·log2(n) + n            = %.0f (paper: 56)\n", 2*n*log2(n)+n)
	fmt.Printf("  c2 = 2(n + (n/2)·log2(n/2))    = %.0f (paper: 32)\n", 2*(n+(n/2)*log2(n/2)))
	fmt.Printf("  c3 = 2n + (n/2)·log2(n/2)      = %.0f (paper: 24)\n", 2*n+(n/2)*log2(n/2))

	fmt.Println("\nThis library's RowModel on the three Fig. 4 workflows:")
	t := stats.NewTable("case", "total cost")
	for _, c := range []struct {
		name string
		kind templates.Fig4Case
	}{
		{"original (SK per branch, σ once)", templates.Fig4Original},
		{"distributed (σ pushed into both branches)", templates.Fig4Distributed},
		{"factorized (one SK after the union)", templates.Fig4Factorized},
	} {
		g := templates.Fig4Workflow(c.kind, n)
		costing, err := cost.Evaluate(g, cost.RowModel{})
		if err != nil {
			return fmt.Errorf("fig4: %s: %w", c.name, err)
		}
		t.AddRow(c.name, costing.Total)
	}
	fmt.Print(t.String())
	fmt.Println("Both rewrites price below the original, matching the figure's conclusion that DIS and FAC reduce state cost.")
	return nil
}

// runAblations executes the DESIGN.md ablation studies (A1-A4) on fixed
// seeds and prints one table per study. BenchmarkAblation* provide the
// same measurements as testing.B benchmarks; this command trades
// statistical rigor for a readable one-shot report.
func runAblations(seed int64) error {
	fmt.Println("A1 — signature dedup (ES on Fig. 1, 5000-state budget)")
	t := stats.NewTable("variant", "generated", "distinct", "terminated", "improvement %")
	for _, v := range []struct {
		name    string
		disable bool
	}{{"with dedup", false}, {"without dedup", true}} {
		res, err := core.Exhaustive(context.Background(), templates.Fig1Workflow(), core.Options{
			MaxStates: 5000, IncrementalCost: true, DisableDedup: v.disable,
		})
		if err != nil {
			return err
		}
		t.AddRow(v.name, res.Generated, res.Visited, fmt.Sprint(res.Terminated),
			fmt.Sprintf("%.1f", res.Improvement()))
	}
	fmt.Println(t)

	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, seed))
	if err != nil {
		return err
	}

	fmt.Println("A2 — semi-incremental costing (HS, medium workflow, 4000-state budget)")
	t = stats.NewTable("variant", "time", "improvement %")
	for _, v := range []struct {
		name string
		inc  bool
	}{{"incremental", true}, {"full recomputation", false}} {
		start := time.Now()
		res, err := core.Heuristic(context.Background(), sc.Graph, core.Options{MaxStates: 4000, IncrementalCost: v.inc})
		if err != nil {
			return err
		}
		t.AddRow(v.name, time.Since(start).Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", res.Improvement()))
	}
	fmt.Println(t)

	fmt.Println("A3 — HS Phase I (medium workflow, 6000-state budget)")
	t = stats.NewTable("variant", "improvement %", "visited")
	for _, v := range []struct {
		name    string
		disable bool
	}{{"with Phase I", false}, {"without Phase I", true}} {
		res, err := core.Heuristic(context.Background(), sc.Graph, core.Options{
			MaxStates: 6000, IncrementalCost: true, DisablePhaseI: v.disable,
		})
		if err != nil {
			return err
		}
		t.AddRow(v.name, fmt.Sprintf("%.1f", res.Improvement()), res.Visited)
	}
	fmt.Println(t)

	fmt.Println("A4 — merge constraints (HS on Fig. 1; $2€ and A2E packaged)")
	g := templates.Fig1Workflow()
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
	t = stats.NewTable("variant", "improvement %", "visited")
	for _, v := range []struct {
		name  string
		pairs [][2]workflow.NodeID
	}{
		{"unconstrained", nil},
		{"merge constrained", [][2]workflow.NodeID{{d2e, a2e}}},
	} {
		res, err := core.Heuristic(context.Background(), g, core.Options{IncrementalCost: true, MergeConstraints: v.pairs})
		if err != nil {
			return err
		}
		t.AddRow(v.name, fmt.Sprintf("%.1f", res.Improvement()), res.Visited)
	}
	fmt.Println(t)
	fmt.Println("(A5, engine modes, needs data volume: see BenchmarkParallelEngine and DESIGN.md §8.)")
	return nil
}
