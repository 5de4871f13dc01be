package etl_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"etlopt/pkg/etl"
)

const quickstartDSL = `
recordset ORDERS source rows=10000 schema=ORDER_ID,CUST,DAMT
activity nn notnull attrs=CUST sel=0.95
activity conv convert fn=dollar2euro args=DAMT out=EAMT
activity keep filter pred="EAMT >= 50" sel=0.3
recordset DW target schema=ORDER_ID,CUST,EAMT
flow ORDERS -> nn -> conv -> keep -> DW
`

func buildBindings() map[string]etl.Recordset {
	rows := etl.Rows{
		{etl.NewInt(1), etl.NewString("acme"), etl.NewFloat(40)},
		{etl.NewInt(2), etl.NewString("acme"), etl.NewFloat(90)},
		{etl.NewInt(3), etl.Null, etl.NewFloat(200)},
		{etl.NewInt(4), etl.NewString("zeta"), etl.NewFloat(55.5)},
		{etl.NewInt(5), etl.NewString("zeta"), etl.NewFloat(70)},
	}
	return map[string]etl.Recordset{
		"ORDERS": etl.NewMemoryRecordset("ORDERS", etl.Schema{"ORDER_ID", "CUST", "DAMT"}).MustLoad(rows),
	}
}

func TestOptimizeRunVerifyRoundTrip(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []etl.Algorithm{etl.ES, etl.HS, etl.HSGreedy, ""} {
		res, err := etl.Optimize(ctx, g, etl.WithAlgorithm(algo), etl.WithMaxStates(10_000))
		if err != nil {
			t.Fatalf("%q: %v", algo, err)
		}
		if res.BestCost > res.InitialCost {
			t.Errorf("%q: optimization made the workflow worse", algo)
		}
		bindings := buildBindings()
		run, err := etl.Run(ctx, res.Best, bindings)
		if err != nil {
			t.Fatalf("%q: run: %v", algo, err)
		}
		// NN drops order 3; after $→€ conversion the threshold drops
		// orders 1 and 4, leaving orders 2 and 5.
		if got := len(run.Targets["DW"]); got != 2 {
			t.Errorf("%q: loaded %d rows into DW, want 2", algo, got)
		}
		ok, diff, err := etl.VerifyEmpirical(g, res.Best, buildBindings())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%q: optimized workflow not equivalent: %s", algo, diff)
		}
	}
}

func TestOptimizeUnknownAlgorithm(t *testing.T) {
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := etl.Optimize(context.Background(), g, etl.WithAlgorithm("magic")); err == nil {
		t.Error("unknown algorithm should be rejected")
	}
}

func TestOptimizeCancellation(t *testing.T) {
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := etl.Optimize(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("Optimize err = %v, want context.Canceled", err)
	}
	if _, err := etl.Run(ctx, g, buildBindings()); !errors.Is(err, context.Canceled) {
		t.Errorf("Run err = %v, want context.Canceled", err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	src, err := etl.Serialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "recordset ORDERS") {
		t.Errorf("serialized DSL missing source declaration:\n%s", src)
	}
	g2, err := etl.Parse(src)
	if err != nil {
		t.Fatalf("re-parsing serialized DSL: %v", err)
	}
	if g.Signature() != g2.Signature() {
		t.Errorf("round trip changed the workflow: %s vs %s", g.Signature(), g2.Signature())
	}
}

func TestMetricsFacade(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	if etl.Metrics() == nil || etl.Metrics() != etl.Metrics() {
		t.Fatal("etl.Metrics() must return one stable package-level registry")
	}
	reg := etl.NewMetricsRegistry()
	res, err := etl.Optimize(ctx, g, etl.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := etl.Run(ctx, res.Best, buildBindings(), etl.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if v, ok := snap.CounterValue("search_states_visited_total"); !ok || v == 0 {
		t.Errorf("search_states_visited_total = %d, %v; want > 0", v, ok)
	}
	if v, ok := snap.CounterValue(`engine_runs_total{mode="materialized"}`); !ok || v != 1 {
		t.Errorf(`engine_runs_total{mode="materialized"} = %d, %v; want 1`, v, ok)
	}
	// The default registry stayed untouched by the isolated one above.
	if _, ok := etl.Metrics().Snapshot().CounterValue("search_states_visited_total"); ok {
		t.Error("isolated registry leaked series into etl.Metrics()")
	}
}

func TestWorkersOptionDeterminism(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := etl.Optimize(ctx, g, etl.WithAlgorithm(etl.ES), etl.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := etl.Optimize(ctx, g, etl.WithAlgorithm(etl.ES), etl.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if seq.BestCost != par.BestCost || seq.Best.Signature() != par.Best.Signature() {
		t.Errorf("workers changed the result: (%v,%s) vs (%v,%s)",
			seq.BestCost, seq.Best.Signature(), par.BestCost, par.Best.Signature())
	}
}
