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

	"etlopt/internal/cost"
	"etlopt/internal/experiments"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/stats"
	"etlopt/internal/templates"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etlbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		// The paper's test set is 40 workflows over the three categories
		// (§4.2); it did not publish the split, and 14/13/13 keeps the
		// categories balanced.
		counts   = flag.String("counts", "14,13,13", "workflows per category: small,medium,large")
		seed     = flag.Int64("seed", 20050405, "base random seed (ICDE 2005 started April 5)")
		esBudget = flag.Int("esbudget", 60_000, "ES state budget per workflow")
		hsBudget = flag.Int("hsbudget", 30_000, "HS state budget per workflow")
		workers  = flag.Int("workers", 0, "optimizer search parallelism (0 = all CPUs, 1 = sequential; same results either way)")
		verify   = flag.Bool("verify", false, "validate every optimized workflow on generated data")
		fig4     = flag.Bool("fig4", false, "print only the Fig. 4 cost cases")
		quiet    = flag.Bool("quiet", false, "suppress per-workflow progress")
		journal  = flag.String("journal", "", "record a structured run journal of the whole suite here (JSONL flight recorder; etlvet obs reports it, -format trace writes its spans, -format snapshot its metrics)")
	)
	flag.Parse()

	if *fig4 {
		return printFig4()
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
	var jnl *obs.Journal
	if *journal != "" {
		var err error
		jnl, err = obs.NewJournalFile(*journal, obs.NewRegistry())
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
