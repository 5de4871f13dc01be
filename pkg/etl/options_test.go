package etl_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/pkg/etl"
)

// TestFullCostEvalEquivalence pins that the facade's ES, which costs each
// state semi-incrementally, finds the same optimum as a search that
// recomputes every state's cost from scratch.
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
	full, err := core.Exhaustive(ctx, g, core.Options{MaxStates: 10_000, IncrementalCost: false})
	if err != nil {
		t.Fatal(err)
	}
	if full.BestCost != incremental.BestCost || full.Visited != incremental.Visited {
		t.Errorf("full cost eval changed the result: (%v,%d) vs (%v,%d)",
			full.BestCost, full.Visited, incremental.BestCost, incremental.Visited)
	}
}

// TestModelAndConstraintOptions pins what Optimize prices with: the
// paper's row model, so the facade's default search must reproduce HS
// under an explicit cost.RowModel. NewGraph starts empty.
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
	row, err := core.Heuristic(ctx, g, core.Options{Model: cost.RowModel{}, IncrementalCost: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.BestCost != row.BestCost {
		t.Errorf("the default search and HS under the row model differ: %v vs %v", base.BestCost, row.BestCost)
	}
	if fresh := etl.NewGraph(); fresh == nil || fresh.Len() != 0 {
		t.Errorf("NewGraph not empty: %v", fresh)
	}
}

// TestRunModesViaOptions runs the quickstart workflow by default and with
// WithPartitions(8) and requires identical targets.
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
	run, err := etl.Run(ctx, g, buildBindings(), etl.WithPartitions(8))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range base.Targets {
		if err := want.SameMultiset(run.Targets[name]); err != nil {
			t.Errorf("target %s differs from the default run: %v", name, err)
		}
	}
}

// TestPartitionsImplyParallelMode pins the quickstart idiom: passing
// WithPartitions alone runs that many partitions.
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
	j := etl.NewJournal(io.Discard, reg)
	run, err := etl.Run(ctx, g, buildBindings(), etl.WithPartitions(3), etl.WithJournal(j))
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range base.Targets {
		if err := want.SameMultiset(run.Targets[name]); err != nil {
			t.Errorf("target %s differs from the one-partition run: %v", name, err)
		}
	}
	if v, ok := reg.Snapshot().CounterValue(`engine_runs_total{partitions="3"}`); !ok || v != 1 {
		t.Errorf("WithPartitions(3) alone did not run three partitions: runs=%d ok=%v", v, ok)
	}
}

// TestPartitionsZeroIsGOMAXPROCS: WithPartitions(n <= 0) runs GOMAXPROCS
// partitions, as engine.WithPartitions and etlrun -partitions 0 do, and no
// option runs one. GOMAXPROCS is set to 3 so that it is not the default.
func TestPartitionsZeroIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts []etl.Option
		want string
	}{
		{nil, "engine/p1"},
		{[]etl.Option{etl.WithPartitions(0)}, "engine/p3"},
		{[]etl.Option{etl.WithPartitions(-2)}, "engine/p3"},
	} {
		var buf bytes.Buffer
		j := etl.NewJournal(&buf, nil)
		_, err := etl.Run(context.Background(), g, buildBindings(), append(c.opts, etl.WithJournal(j))...)
		if err := errors.Join(err, j.Close()); err != nil {
			t.Fatal(err)
		}
		evs, err := etl.ReadJournal(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var runs []string
		for _, e := range evs {
			if e.T == "run" {
				runs = append(runs, e.Detail)
			}
		}
		if len(runs) != 2 || runs[0] != c.want || runs[1] != c.want {
			t.Errorf("%d options: run events %q, want start and end of %s", len(c.opts), runs, c.want)
		}
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
	opts := []etl.Option{etl.WithJournal(j), etl.WithPartitions(4)}
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
		if err := want.SameMultiset(run.Targets[name]); err != nil {
			t.Errorf("journal changed target %s: %v", name, err)
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
// Optimize and Run without error, and WithJournal's registry gets both.
func TestOneOptionSliceForBothEntryPoints(t *testing.T) {
	ctx := context.Background()
	g, err := etl.Parse(quickstartDSL)
	if err != nil {
		t.Fatal(err)
	}
	reg := etl.NewMetricsRegistry()
	j := etl.NewJournal(io.Discard, reg)
	defer j.Close()
	opts := []etl.Option{
		etl.WithAlgorithm(etl.HS),
		etl.WithWorkers(2),
		etl.WithPartitions(4),
		etl.WithJournal(j),
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
