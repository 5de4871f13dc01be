package experiments

import (
	"context"
	"io"
	"strings"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/obs"
)

// smallSuite runs a reduced suite quickly: one workflow per category with
// tight budgets, verification on.
func smallSuite(t *testing.T) []WorkflowResult {
	t.Helper()
	results, err := RunSuite(context.Background(), SuiteConfig{
		Seed: 5,
		Counts: map[generator.Category]int{
			generator.Small:  2,
			generator.Medium: 1,
			generator.Large:  1,
		},
		ESBudget: 4000,
		HSBudget: 3000,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestRunSuiteShape(t *testing.T) {
	results := smallSuite(t)
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for _, r := range results {
		if !r.Verified {
			t.Errorf("%s workflow not verified", r.Category)
		}
		if r.Activities == 0 {
			t.Error("zero activities recorded")
		}
		// No algorithm may return a worse-than-initial state.
		for name, a := range map[string]AlgoRun{"ES": r.ES, "HS": r.HS, "HSG": r.HSG} {
			if a.Improvement < 0 {
				t.Errorf("%s %s: negative improvement %v", r.Category, name, a.Improvement)
			}
			if a.Visited < 0 || a.Seconds < 0 {
				t.Errorf("%s %s: nonsensical metrics %+v", r.Category, name, a)
			}
		}
		// HS must not lose to its greedy variant.
		if r.HS.BestCost > r.HSG.BestCost {
			t.Errorf("%s: HS cost %v worse than greedy %v", r.Category, r.HS.BestCost, r.HSG.BestCost)
		}
		// Every scenario executed its initial workflow, so drift is a
		// well-defined mean of |observed - modeled| selectivities.
		if r.SelDrift < 0 || r.SelDrift > 1.5 {
			t.Errorf("%s: implausible selectivity drift %v", r.Category, r.SelDrift)
		}
	}
}

func TestTableRendering(t *testing.T) {
	results := smallSuite(t)
	t1 := Table1(results)
	for _, want := range []string{"small", "medium", "large", "HS quality %", "HS-Greedy"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2(results)
	for _, want := range []string{"ES states", "HS impr %", "HSG time s", "sel drift", "small"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
	claims := Claims(results)
	for _, want := range []string{"faster than HS", "paper:"} {
		if !strings.Contains(claims, want) {
			t.Errorf("Claims missing %q:\n%s", want, claims)
		}
	}
}

func TestSuiteDeterminism(t *testing.T) {
	cfg := SuiteConfig{
		Seed:     9,
		Counts:   map[generator.Category]int{generator.Small: 1},
		ESBudget: 1500,
		HSBudget: 1500,
	}
	a, err := RunSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].ES.Visited != b[0].ES.Visited ||
		a[0].HS.BestCost != b[0].HS.BestCost ||
		a[0].HSG.BestCost != b[0].HSG.BestCost {
		t.Error("suite runs with the same seed diverge")
	}
}

// TestSuiteMetrics checks that the registry of the suite's journal collects
// both the optimizer's and the executor's series, and that attaching it
// does not change any result.
func TestSuiteMetrics(t *testing.T) {
	cfg := SuiteConfig{
		Seed:     9,
		Counts:   map[generator.Category]int{generator.Small: 1},
		ESBudget: 1500,
		HSBudget: 1500,
	}
	plain, err := RunSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Journal = obs.NewJournal(io.Discard, reg)
	instr, err := RunSuite(context.Background(), cfg)
	cfg.Journal.Close()
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].ES.BestCost != instr[0].ES.BestCost ||
		plain[0].HS.Visited != instr[0].HS.Visited ||
		plain[0].SelDrift != instr[0].SelDrift {
		t.Error("attaching metrics changed suite results")
	}
	snap := reg.Snapshot()
	if v, ok := snap.CounterValue("search_states_visited_total"); !ok || v == 0 {
		t.Errorf("search_states_visited_total = %d, %v; want > 0", v, ok)
	}
	if v, ok := snap.CounterValue(`engine_runs_total{partitions="1"}`); !ok || v != 1 {
		t.Errorf(`engine_runs_total{partitions="1"} = %d, %v; want 1`, v, ok)
	}
}
