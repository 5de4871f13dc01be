package etl_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
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

// TestRunRefusesMergedPackage: etl.Run returns the engine's refusal of a
// MER package, naming the package, with no source scanned and the bound
// target left empty.
func TestRunRefusesMergedPackage(t *testing.T) {
	sc := templates.Fig1Scenario(20, 60)
	var d2e, a2e etl.NodeID
	for _, id := range sc.Graph.Activities() {
		if a := sc.Graph.Node(id).Act; a.Sem.Op == workflow.OpFunc && a.Sem.DropArgs {
			d2e = id
		} else if a.Sem.Op == workflow.OpFunc && a.InPlace() {
			a2e = id
		}
	}
	mer, err := transitions.Merge(sc.Graph, d2e, a2e)
	if err != nil {
		t.Fatal(err)
	}
	label := mer.Graph.Node(mer.Dirty[0]).Label()
	bindings := sc.Bind()
	scans := 0
	for _, name := range []string{"PARTS1", "PARTS2"} {
		bindings[name] = scanCounter{Recordset: bindings[name], scans: &scans}
	}
	target := etl.NewMemoryRecordset("DW.PARTS", etl.Schema{"PKEY", "SOURCE", "DATE", "ECOST"})
	bindings["DW.PARTS"] = target
	if _, err := etl.Run(context.Background(), mer.Graph, bindings); err == nil || !strings.Contains(err.Error(), label) {
		t.Errorf("err = %v, want one naming the package %s", err, label)
	}
	if rows, _ := target.Scan(); scans != 0 || len(rows) != 0 {
		t.Errorf("refused run scanned %d sources and loaded %d rows", scans, len(rows))
	}
}

type scanCounter struct {
	etl.Recordset
	scans *int
}

func (c scanCounter) Scan() (etl.Rows, error) {
	*c.scans++
	return c.Recordset.Scan()
}

// TestRunFiltersIntArithmeticExactly: V+0 on two ids float64 rounds to
// one number stays the id it was, so the filter loads 2⁵³+1 alone.
func TestRunFiltersIntArithmeticExactly(t *testing.T) {
	g, err := etl.Parse(`
recordset SRC source rows=2 schema=V
activity keep filter pred="(V+0=9007199254740993)" sel=0.5
recordset DW target schema=V
flow SRC -> keep -> DW
`)
	if err != nil {
		t.Fatal(err)
	}
	rows := etl.Rows{{etl.NewInt(1<<53 + 1)}, {etl.NewInt(1 << 53)}}
	bindings := map[string]etl.Recordset{"SRC": etl.NewMemoryRecordset("SRC", etl.Schema{"V"}).MustLoad(rows)}
	res, err := etl.Run(context.Background(), g, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets["DW"]; len(got) != 1 || got[0][0].Int() != 1<<53+1 {
		t.Errorf("loaded %v, want the one row 9007199254740993", got)
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
	reg := etl.NewMetricsRegistry()
	j := etl.NewJournal(io.Discard, reg)
	defer j.Close()
	res, err := etl.Optimize(ctx, g, etl.WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := etl.Run(ctx, res.Best, buildBindings(), etl.WithJournal(j)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if v, ok := snap.CounterValue("search_states_visited_total"); !ok || v == 0 {
		t.Errorf("search_states_visited_total = %d, %v; want > 0", v, ok)
	}
	if v, ok := snap.CounterValue(`engine_runs_total{partitions="1"}`); !ok || v != 1 {
		t.Errorf(`engine_runs_total{partitions="1"} = %d, %v; want 1`, v, ok)
	}
}

// TestJournalAloneRecordsEveryLayer pins that a journal opened with a
// registry is the only observability handle a pipeline needs: passed
// alone through WithJournal to Optimize, Run and RunSuite, its trailer
// snapshot carries the search's, the engine's and the shared cache's
// series.
func TestJournalAloneRecordsEveryLayer(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	j := etl.NewJournal(&buf, etl.NewMetricsRegistry())
	res, err := etl.Optimize(ctx, g, etl.WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := etl.Run(ctx, res.Best, buildBindings(), etl.WithJournal(j)); err != nil {
		t.Fatal(err)
	}
	scs, err := generator.SharedSuite(generator.Small, 2, 2026)
	if err != nil {
		t.Fatal(err)
	}
	wfs := make([]etl.SuiteWorkflow, len(scs))
	for i, sc := range scs {
		wfs[i] = etl.SuiteWorkflow{Graph: sc.Graph, Bindings: sc.Bind()}
	}
	if _, err := etl.RunSuite(ctx, wfs, etl.WithJournal(j)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := etl.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trailer := evs[len(evs)-1]
	if trailer.T != "summary" || trailer.Snapshot == nil {
		t.Fatalf("journal of %d events ends without a snapshot trailer", len(evs))
	}
	snap := trailer.Snapshot
	families := map[string]bool{}
	for _, c := range snap.Counters {
		families[c.Family] = true
	}
	for _, gp := range snap.Gauges {
		families[gp.Family] = true
	}
	for _, want := range []string{
		"search_states_visited_total",
		"engine_rows_out_total",
		"engine_selectivity_observed",
		"shared_cache_lookups_total",
	} {
		if !families[want] {
			t.Errorf("trailer snapshot (%d counters, %d gauges for %d events) lacks %s",
				len(snap.Counters), len(snap.Gauges), len(evs), want)
		}
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
