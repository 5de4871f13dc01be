package core

import (
	"context"
	"io"
	"strings"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// TestMetricsDoNotAffectSearch is the obs determinism guard: collection
// must never feed back into search ordering. Every algorithm, at several
// worker widths, must produce bit-identical signatures, costs and search
// statistics with metrics (a journal's registry) enabled and disabled.
func TestMetricsDoNotAffectSearch(t *testing.T) {
	ctx := context.Background()
	algos := map[string]func(context.Context, *workflow.Graph, Options) (*Result, error){
		"ES":        Exhaustive,
		"HS":        Heuristic,
		"HS-Greedy": HSGreedy,
	}
	for _, seed := range []int64{9100, 9101} {
		sc, err := generator.Generate(generator.CategoryConfig(generator.Small, seed))
		if err != nil {
			t.Fatal(err)
		}
		for name, algo := range algos {
			for _, workers := range []int{1, 2, 4} {
				base := Options{IncrementalCost: true, MaxStates: 3000, Workers: workers}
				off, err := algo(ctx, sc.Graph, base)
				if err != nil {
					t.Fatalf("seed %d %s workers=%d metrics off: %v", seed, name, workers, err)
				}
				reg := obs.NewRegistry()
				withM := base
				withM.Journal = obs.NewJournal(io.Discard, reg)
				on, err := algo(ctx, sc.Graph, withM)
				withM.Journal.Close()
				if err != nil {
					t.Fatalf("seed %d %s workers=%d metrics on: %v", seed, name, workers, err)
				}
				if off.BestCost != on.BestCost {
					t.Errorf("seed %d %s workers=%d: BestCost %v (off) != %v (on)",
						seed, name, workers, off.BestCost, on.BestCost)
				}
				if got, want := on.Best.Signature(), off.Best.Signature(); got != want {
					t.Errorf("seed %d %s workers=%d: signature diverged\n off: %s\n on:  %s",
						seed, name, workers, want, got)
				}
				if off.Visited != on.Visited || off.Generated != on.Generated {
					t.Errorf("seed %d %s workers=%d: stats diverged: (%d,%d) vs (%d,%d)",
						seed, name, workers, off.Visited, off.Generated, on.Visited, on.Generated)
				}
				// The exported counters must agree with the Result they
				// describe.
				snap := reg.Snapshot()
				if v, _ := snap.CounterValue("search_states_generated_total"); v != int64(on.Generated) {
					t.Errorf("seed %d %s workers=%d: generated series %d != Result.Generated %d",
						seed, name, workers, v, on.Generated)
				}
				if v, _ := snap.CounterValue("search_states_visited_total"); v != int64(on.Visited) {
					t.Errorf("seed %d %s workers=%d: visited series %d != Result.Visited %d",
						seed, name, workers, v, on.Visited)
				}
			}
		}
	}
}

// TestMetricsSeriesDeterministic pins the counter *values* themselves
// across worker widths: the same search must export identical attempt,
// accept and state counts no matter how many goroutines ran it.
func TestMetricsSeriesDeterministic(t *testing.T) {
	ctx := context.Background()
	sc, err := generator.Generate(generator.CategoryConfig(generator.Small, 9102))
	if err != nil {
		t.Fatal(err)
	}
	counters := func(workers int) map[string]int64 {
		reg := obs.NewRegistry()
		j := obs.NewJournal(io.Discard, reg)
		_, err := Heuristic(ctx, sc.Graph, Options{
			IncrementalCost: true, MaxStates: 3000, Workers: workers, Journal: j,
		})
		j.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := map[string]int64{}
		for _, c := range reg.Snapshot().Counters {
			if strings.HasPrefix(c.Series, "search_") {
				out[c.Series] = c.Value
			}
		}
		return out
	}
	seq := counters(1)
	par := counters(4)
	for series, want := range seq {
		if got := par[series]; got != want {
			t.Errorf("%s: %d (1 worker) != %d (4 workers)", series, want, got)
		}
	}
	if len(par) != len(seq) {
		t.Errorf("series sets diverged: %d vs %d", len(seq), len(par))
	}
}

// TestPathStepCountersMatchTrace: on a full HS run over a medium
// scenario, the exported per-transition-kind path-step counts must sum
// exactly to the length of the derivation path in Result.Steps.
func TestPathStepCountersMatchTrace(t *testing.T) {
	ctx := context.Background()
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 20050405))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	j := obs.NewJournal(io.Discard, reg)
	res, err := Heuristic(ctx, sc.Graph, Options{
		IncrementalCost: true, Journal: j,
	})
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("medium HS run recorded no trace steps; test needs a non-trivial path")
	}
	snap := reg.Snapshot()
	perOp := map[string]int64{}
	var sum int64
	for _, op := range opNames {
		v, ok := snap.CounterValue(`search_path_steps_total{op="` + op + `"}`)
		if !ok {
			t.Fatalf("snapshot missing path-step series for %s", op)
		}
		perOp[op] = v
		sum += v
	}
	if sum != int64(len(res.Steps)) {
		t.Fatalf("path-step counters sum to %d (%v), trace length is %d",
			sum, perOp, len(res.Steps))
	}
	// Cross-check per kind against the trace itself.
	fromTrace := map[string]int64{}
	for _, st := range res.Steps {
		fromTrace[st.Op]++
	}
	for op, want := range fromTrace {
		if perOp[op] != want {
			t.Errorf("op %s: counter %d, trace has %d", op, perOp[op], want)
		}
	}
	// The snapshot also carries the live gauges with final values.
	if v, ok := snap.GaugeValue("search_best_cost"); !ok || v != res.BestCost {
		t.Errorf("search_best_cost = %v, %v; want %v", v, ok, res.BestCost)
	}
	if v, ok := snap.GaugeValue("search_initial_cost"); !ok || v != res.InitialCost {
		t.Errorf("search_initial_cost = %v, %v; want %v", v, ok, res.InitialCost)
	}
}
