// Clickstream: a web-analytics ETL scenario. Two log sources (web and
// mobile) are cleaned — status filtering, URL normalization, bot
// removal — unified, aggregated into daily per-page hit counts and loaded
// into a warehouse fact table. The example contrasts all three search
// algorithms on the same workflow and runs the optimized plan through the
// engine.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"etlopt/internal/algebra"
	"etlopt/internal/core"
	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/equiv"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// buildWorkflow declares the clickstream ETL graph.
func buildWorkflow() *workflow.Graph {
	g := workflow.NewGraph()
	schema := data.Schema{"TS", "URL", "STATUS", "AGENT", "BYTES"}

	web := g.AddRecordset(&workflow.RecordsetRef{
		Name: "WEB_LOG", Schema: schema, Rows: 500_000, IsSource: true,
	})
	mob := g.AddRecordset(&workflow.RecordsetRef{
		Name: "MOBILE_LOG", Schema: schema, Rows: 200_000, IsSource: true,
	})

	// Per-branch cleaning. Both branches run the same bot filter — a
	// factorization candidate the optimizer can exploit.
	botFilter := func() *workflow.Activity {
		return templates.Filter(algebra.Cmp{
			Op:    algebra.NE,
			Left:  algebra.Attr{Name: "AGENT"},
			Right: algebra.Const{Value: data.NewString("bot")},
		}, 0.8)
	}
	okOnly := func() *workflow.Activity {
		return templates.Filter(algebra.Cmp{
			Op:    algebra.EQ,
			Left:  algebra.Attr{Name: "STATUS"},
			Right: algebra.Const{Value: data.NewInt(200)},
		}, 0.7)
	}

	wNorm := g.AddActivity(templates.Reformat("lower", "URL"))
	wOK := g.AddActivity(okOnly())
	wBot := g.AddActivity(botFilter())
	mNorm := g.AddActivity(templates.Reformat("lower", "URL"))
	mOK := g.AddActivity(okOnly())
	mBot := g.AddActivity(botFilter())

	u := g.AddActivity(templates.Union())

	// Post-union: drop payload size, count hits per (URL, TS) and keep
	// pages with real traffic.
	drop := g.AddActivity(templates.ProjectOut("BYTES", "AGENT", "STATUS"))
	agg := g.AddActivity(templates.Aggregate(
		[]string{"URL", "TS"}, workflow.AggCount, "", "HITS", 0.05))
	busy := g.AddActivity(templates.Threshold("HITS", 2, 0.6))

	dw := g.AddRecordset(&workflow.RecordsetRef{
		Name: "DW.PAGE_HITS", Schema: data.Schema{"URL", "TS", "HITS"}, IsTarget: true,
	})

	g.MustAddEdge(web, wNorm)
	g.MustAddEdge(wNorm, wOK)
	g.MustAddEdge(wOK, wBot)
	g.MustAddEdge(mob, mNorm)
	g.MustAddEdge(mNorm, mOK)
	g.MustAddEdge(mOK, mBot)
	g.MustAddEdge(wBot, u)
	g.MustAddEdge(mBot, u)
	g.MustAddEdge(u, drop)
	g.MustAddEdge(drop, agg)
	g.MustAddEdge(agg, busy)
	g.MustAddEdge(busy, dw)
	if err := g.RegenerateSchemata(); err != nil {
		log.Fatal(err)
	}
	return g
}

// logRows fabricates deterministic log records.
func logRows(n int, agentBias int) data.Rows {
	urls := []string{"/home", "/Pricing", "/docs", "/BLOG", "/contact"}
	days := []string{"2026-07-01", "2026-07-02", "2026-07-03"}
	rows := make(data.Rows, 0, n)
	for i := 0; i < n; i++ {
		agent := "browser"
		if i%agentBias == 0 {
			agent = "bot"
		}
		status := int64(200)
		if i%9 == 0 {
			status = 404
		}
		rows = append(rows, data.Record{
			data.NewString(days[i%len(days)]),
			data.NewString(urls[i%len(urls)]),
			data.NewInt(status),
			data.NewString(agent),
			data.NewInt(int64(500 + i%4096)),
		})
	}
	return rows
}

func main() {
	g := buildWorkflow()
	fmt.Println("clickstream workflow:", g.Signature())
	fmt.Printf("local groups: %v\n", g.LocalGroups())
	fmt.Printf("homologous pairs (factorization candidates): %d\n", len(g.FindHomologousPairs()))

	// Compare the three algorithms.
	type row struct {
		name string
		res  *core.Result
	}
	var rows []row
	es, err := core.Exhaustive(context.Background(), g, core.Options{MaxStates: 30_000, IncrementalCost: true})
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{"ES", es})
	hs, err := core.Heuristic(context.Background(), g, core.Options{IncrementalCost: true})
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{"HS", hs})
	hsg, err := core.HSGreedy(context.Background(), g, core.Options{IncrementalCost: true})
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{"HS-Greedy", hsg})

	fmt.Printf("\n%-10s %14s %14s %8s %9s %10s\n", "algorithm", "initial cost", "final cost", "impr %", "states", "time")
	for _, r := range rows {
		fmt.Printf("%-10s %14.0f %14.0f %7.1f%% %9d %10v\n",
			r.name, r.res.InitialCost, r.res.BestCost, r.res.Improvement(),
			r.res.Visited, r.res.Elapsed.Round(time.Microsecond))
	}

	best := es.Best
	fmt.Println("\noptimized workflow:")
	fmt.Print(best)

	// Execute the optimized plan.
	bindings := map[string]data.Recordset{
		"WEB_LOG": data.NewMemoryRecordset("WEB_LOG",
			data.Schema{"TS", "URL", "STATUS", "AGENT", "BYTES"}).MustLoad(logRows(3000, 10)),
		"MOBILE_LOG": data.NewMemoryRecordset("MOBILE_LOG",
			data.Schema{"TS", "URL", "STATUS", "AGENT", "BYTES"}).MustLoad(logRows(1200, 7)),
	}
	run, err := engine.New(bindings).Run(context.Background(), best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecution: %d page-day rows in %v\n",
		len(run.Targets["DW.PAGE_HITS"]), run.Elapsed.Round(time.Microsecond))
	for i, r := range run.Targets["DW.PAGE_HITS"] {
		if i == 6 {
			fmt.Println("   ...")
			break
		}
		fmt.Println("  ", r)
	}

	ok, diff, err := equiv.VerifyEmpirical(g, best, bindings)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimized plan equivalent to the original: %v %s\n", ok, diff)
}
