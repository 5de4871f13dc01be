package etl_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"etlopt/internal/cost"
	"etlopt/pkg/etl"
)

// TestFullCostEvalEquivalence pins that recomputing every state's cost
// from scratch finds the same optimum as the semi-incremental default.
func TestFullCostEvalEquivalence(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	incremental, err := etl.Optimize(ctx, g,
		etl.WithAlgorithm(etl.ES), etl.WithMaxStates(10_000), etl.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	full, err := etl.Optimize(ctx, g,
		etl.WithAlgorithm(etl.ES), etl.WithMaxStates(10_000), etl.WithFullCostEval())
	if err != nil {
		t.Fatal(err)
	}
	if full.BestCost != incremental.BestCost {
		t.Errorf("full cost eval changed the result: %v vs %v", full.BestCost, incremental.BestCost)
	}
}

// TestModelAndConstraintOptions pins the remaining Optimize options: an
// explicit row model, a group cap and empty merge constraints must all
// reproduce the default result, and NewGraph starts empty.
func TestModelAndConstraintOptions(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	base, err := etl.Optimize(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := etl.Optimize(ctx, g,
		etl.WithModel(cost.RowModel{}), etl.WithGroupCap(64), etl.WithMergeConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if base.BestCost != tuned.BestCost {
		t.Errorf("explicit defaults changed the result: %v vs %v", tuned.BestCost, base.BestCost)
	}
	if fresh := etl.NewGraph(); fresh == nil || fresh.Len() != 0 {
		t.Errorf("NewGraph not empty: %v", fresh)
	}
}

// TestRunModesViaOptions runs the quickstart workflow through both engine
// modes using the unified options and requires identical targets.
func TestRunModesViaOptions(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	base, err := etl.Run(ctx, g, buildBindings())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []etl.Option
	}{
		{"materialized", []etl.Option{etl.WithMode(etl.Materialized)}},
		{"parallel", []etl.Option{etl.WithMode(etl.Parallel), etl.WithPartitions(8)}},
	} {
		run, err := etl.Run(ctx, g, buildBindings(), tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for name, want := range base.Targets {
			if !want.EqualMultiset(run.Targets[name]) {
				t.Errorf("%s: target %s differs from materialized", tc.name, name)
			}
		}
	}
}

// TestPartitionsImplyParallelMode pins the quickstart idiom: passing
// WithPartitions alone selects Parallel mode, while an explicit WithMode
// still wins over the implication.
func TestPartitionsImplyParallelMode(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	base, err := etl.Run(ctx, g, buildBindings())
	if err != nil {
		t.Fatal(err)
	}
	reg := etl.NewMetricsRegistry()
	run, err := etl.Run(ctx, g, buildBindings(), etl.WithPartitions(3), etl.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range base.Targets {
		if !want.EqualMultiset(run.Targets[name]) {
			t.Errorf("target %s differs from materialized", name)
		}
	}
	if v, ok := reg.Snapshot().CounterValue(`engine_runs_total{mode="parallel"}`); !ok || v != 1 {
		t.Errorf("WithPartitions alone did not run parallel: runs=%d ok=%v", v, ok)
	}
	reg = etl.NewMetricsRegistry()
	if _, err := etl.Run(ctx, g, buildBindings(),
		etl.WithMode(etl.Materialized), etl.WithPartitions(3), etl.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Snapshot().CounterValue(`engine_runs_total{mode="materialized"}`); !ok || v != 1 {
		t.Errorf("explicit WithMode lost to the partitions implication: runs=%d ok=%v", v, ok)
	}
}

// TestJournalOptionSpansPipeline pins the facade's flight-recorder
// contract: one WithJournal option slice feeds both Optimize and Run,
// the recording changes no result, and the closed journal parses back
// with both runs' boundaries and the summary trailer.
func TestJournalOptionSpansPipeline(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	base, err := etl.Optimize(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	baseRun, err := etl.Run(ctx, base.Best, buildBindings())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	j := etl.NewJournal(&buf, nil)
	opts := []etl.Option{etl.WithJournal(j), etl.WithProfileLabels(), etl.WithPartitions(4)}
	res, err := etl.Optimize(ctx, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	run, err := etl.Run(ctx, res.Best, buildBindings(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
	if res.BestCost != base.BestCost || res.Best.Signature() != base.Best.Signature() {
		t.Errorf("journal changed the optimization: cost %v vs %v", res.BestCost, base.BestCost)
	}
	for name, want := range baseRun.Targets {
		if !want.EqualMultiset(run.Targets[name]) {
			t.Errorf("journal changed target %s", name)
		}
	}

	evs, err := etl.ReadJournal(&buf)
	if err != nil {
		t.Fatalf("journal unreadable: %v", err)
	}
	var runs, summaries int
	for _, e := range evs {
		switch e.T {
		case "run":
			runs++
		case "summary":
			summaries++
		}
	}
	if runs != 4 {
		t.Errorf("%d run boundaries, want start/end for both the search and the engine", runs)
	}
	if summaries != 1 {
		t.Errorf("%d summary trailers, want 1", summaries)
	}
}

// TestOneOptionSliceForBothEntryPoints verifies cross-entry-point
// tolerance: a single slice mixing search and engine options configures
// Optimize and Run without error, and WithMetrics feeds both.
func TestOneOptionSliceForBothEntryPoints(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	reg := etl.NewMetricsRegistry()
	opts := []etl.Option{
		etl.WithAlgorithm(etl.HS),
		etl.WithWorkers(2),
		etl.WithMode(etl.Parallel),
		etl.WithPartitions(4),
		etl.WithMetrics(reg),
	}
	res, err := etl.Optimize(ctx, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := etl.Run(ctx, res.Best, buildBindings(), opts...); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var sawSearch, sawEngine bool
	for _, c := range snap.Counters {
		if c.Family == "search_states_generated_total" {
			sawSearch = true
		}
		if c.Family == "engine_runs_total" && c.Value > 0 {
			sawEngine = true
		}
	}
	if !sawSearch || !sawEngine {
		t.Errorf("shared registry missing series: search=%v engine=%v", sawSearch, sawEngine)
	}
}

// TestRunFaultOptions pins the facade's failure-path surface: a seeded
// transient plan plus a retry policy recovers to the clean answer, the
// same seed under a permanent kind surfaces a typed *FaultInjected, and
// a zero-value RetryPolicy leaves the engine untouched.
func TestRunFaultOptions(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := etl.Run(ctx, g, buildBindings())
	if err != nil {
		t.Fatal(err)
	}

	recovered, err := etl.Run(ctx, g, buildBindings(),
		etl.WithPartitions(4),
		etl.WithFaultPlan(etl.NewFaultPlan(42, 1.0)),
		etl.WithRetry(etl.RetryPolicy{MaxAttempts: 8, Seed: 42}),
	)
	if err != nil {
		t.Fatalf("faulted run did not recover: %v", err)
	}
	if got, want := len(recovered.Targets["DW"]), len(clean.Targets["DW"]); got != want {
		t.Errorf("recovered run loaded %d rows, clean run %d", got, want)
	}

	_, err = etl.Run(ctx, g, buildBindings(),
		etl.WithFaultPlan(etl.NewFaultPlan(42, 1.0, etl.WithFaultKind(etl.FaultPermanent))),
		etl.WithRetry(etl.RetryPolicy{MaxAttempts: 8, Seed: 42}),
	)
	var inj *etl.FaultInjected
	if !errors.As(err, &inj) {
		t.Fatalf("permanent plan did not surface a typed *etl.FaultInjected: %v", err)
	}
	if inj.Site == "" || inj.Kind != etl.FaultPermanent {
		t.Errorf("attribution incomplete: %+v", inj)
	}

	seed, rate, err := etl.ParseFaultSpec("7:0.25")
	if err != nil || seed != 7 || rate != 0.25 {
		t.Errorf("ParseFaultSpec: got (%d, %v, %v)", seed, rate, err)
	}
}
