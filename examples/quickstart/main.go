// Quickstart: declare a small ETL workflow in the DSL, optimize it with
// the heuristic search, execute both versions on in-memory data and
// confirm they load identical records — all through the public pkg/etl
// facade.
//
// The workflow cleans an orders feed: drop records without a customer id,
// convert Dollar amounts to Euros, keep only amounts of at least 50 €,
// and load the result into DW.ORDERS.
package main

import (
	"context"
	"fmt"
	"log"

	"etlopt/pkg/etl"
)

const workflowDSL = `
recordset ORDERS source rows=10000 schema=ORDER_ID,CUST,DAMT
activity nn notnull attrs=CUST sel=0.95
activity conv convert fn=dollar2euro args=DAMT out=EAMT
activity keep filter pred="EAMT >= 50" sel=0.3
recordset DW.ORDERS target schema=ORDER_ID,CUST,EAMT
flow ORDERS -> nn -> conv -> keep -> DW.ORDERS
`

func main() {
	ctx := context.Background()

	// 1. Parse the workflow: ORDERS → NN(CUST) → $2€ → σ(EAMT≥50) → DW.
	g, err := etl.Parse(workflowDSL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial workflow:", g.Signature())

	// 2. Optimize. The selection cannot jump the conversion that produces
	// EAMT (the paper's condition 3), but the NN check can move around.
	res, err := etl.Optimize(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized workflow: %s\n", res.Best.Signature())
	fmt.Printf("cost: %.0f -> %.0f (%.1f%% better, %d states visited)\n",
		res.InitialCost, res.BestCost, res.Improvement(), res.Visited)

	// 3. Execute the optimized version on real data.
	rows := etl.Rows{
		{etl.NewInt(1), etl.NewString("acme"), etl.NewFloat(40)},
		{etl.NewInt(2), etl.NewString("acme"), etl.NewFloat(90)},
		{etl.NewInt(3), etl.Null, etl.NewFloat(200)}, // no customer: dropped
		{etl.NewInt(4), etl.NewString("zeta"), etl.NewFloat(55.5)},
		{etl.NewInt(5), etl.NewString("zeta"), etl.NewFloat(70)},
	}
	bindings := map[string]etl.Recordset{
		"ORDERS": etl.NewMemoryRecordset("ORDERS", etl.Schema{"ORDER_ID", "CUST", "DAMT"}).MustLoad(rows),
	}
	// Partition-parallel execution: the recordset is split 8 ways, yet the
	// loaded rows are bit-identical to the one-partition run at any count.
	run, err := etl.Run(ctx, res.Best, bindings, etl.WithPartitions(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nloaded into DW.ORDERS:")
	for _, r := range run.Targets["DW.ORDERS"] {
		fmt.Println("  ", r)
	}

	// 4. The optimizer's own guarantee, checked empirically.
	ok, diff, err := etl.VerifyEmpirical(g, res.Best, bindings)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noriginal and optimized workflows agree on the data: %v %s\n", ok, diff)
}
