package core

import (
	"bytes"
	"context"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// TestJournalDoesNotAffectSearch is the flight-recorder determinism guard:
// journaling (and pprof worker labels) must never feed back into search
// ordering. Every algorithm, at worker widths 1 and 4, must produce
// bit-identical signatures, costs and search statistics with the journal
// on and off.
func TestJournalDoesNotAffectSearch(t *testing.T) {
	ctx := context.Background()
	algos := map[string]func(context.Context, *workflow.Graph, Options) (*Result, error){
		"ES":        Exhaustive,
		"HS":        Heuristic,
		"HS-Greedy": HSGreedy,
	}
	for _, seed := range []int64{9200, 9201} {
		sc, err := generator.Generate(generator.CategoryConfig(generator.Small, seed))
		if err != nil {
			t.Fatal(err)
		}
		for name, algo := range algos {
			for _, workers := range []int{1, 4} {
				base := Options{IncrementalCost: true, MaxStates: 3000, Workers: workers}
				off, err := algo(ctx, sc.Graph, base)
				if err != nil {
					t.Fatalf("seed %d %s workers=%d journal off: %v", seed, name, workers, err)
				}
				var buf bytes.Buffer
				withJ := base
				withJ.Journal = obs.NewJournal(&buf, nil)
				withJ.PprofLabels = true
				on, err := algo(ctx, sc.Graph, withJ)
				if err != nil {
					t.Fatalf("seed %d %s workers=%d journal on: %v", seed, name, workers, err)
				}
				if err := withJ.Journal.Close(); err != nil {
					t.Fatalf("seed %d %s workers=%d: journal close: %v", seed, name, workers, err)
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

				// The journal itself must be a valid event stream describing
				// this run.
				evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("seed %d %s workers=%d: journal unreadable: %v", seed, name, workers, err)
				}
				counts := map[string]int{}
				var attempts, accepts int
				for _, e := range evs {
					counts[e.T]++
					if e.T == obs.EventTransition {
						switch e.Action {
						case "attempt":
							attempts += int(max(e.Rows, 1)) // a group job's attempts are one record
						case "accept":
							accepts++
						}
					}
				}
				if counts[obs.EventRun] != 2 {
					t.Errorf("seed %d %s workers=%d: %d run events, want start+end",
						seed, name, workers, counts[obs.EventRun])
				}
				if counts[obs.EventSummary] != 1 {
					t.Errorf("seed %d %s workers=%d: %d summary events", seed, name, workers, counts[obs.EventSummary])
				}
				if attempts == 0 {
					t.Errorf("seed %d %s workers=%d: journal recorded no transition attempts",
						seed, name, workers)
				}
				if accepts > attempts {
					t.Errorf("seed %d %s workers=%d: accepts %d > attempts %d",
						seed, name, workers, accepts, attempts)
				}
				// No drops on an unsaturated journal: the accept/attempt
				// totals then align with the metric counters' semantics.
				if d := withJ.Journal.Dropped(); d != 0 {
					t.Logf("seed %d %s workers=%d: journal dropped %d events (buffer pressure)",
						seed, name, workers, d)
				}
			}
		}
	}
}

// TestJournalTransitionCountsMatchMetrics runs one search with both the
// journal and the metrics registry attached and cross-checks the two
// reporting channels against each other: per-op journal counts must equal
// the exported attempt/accept counters, and prune counts must sum to the
// deduped counter.
func TestJournalTransitionCountsMatchMetrics(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Small, 9202))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	j := obs.NewJournal(&buf, reg)
	_, err = Heuristic(context.Background(), sc.Graph, Options{
		IncrementalCost: true, MaxStates: 3000, Workers: 2,
		Metrics: reg, Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	attempts := map[string]int64{}
	accepts := map[string]int64{}
	var prunes int64
	for _, e := range evs {
		if e.T != obs.EventTransition {
			continue
		}
		switch e.Action {
		case "attempt":
			attempts[e.Op] += max(e.Rows, 1) // a group job's attempts are one record
		case "accept":
			accepts[e.Op]++
		case "prune":
			prunes++
		}
	}
	snap := reg.Snapshot()
	for _, op := range opNames {
		if v, _ := snap.CounterValue(`search_transition_attempts_total{op="` + op + `"}`); v != attempts[op] {
			t.Errorf("op %s: journal attempts %d != counter %d", op, attempts[op], v)
		}
		if v, _ := snap.CounterValue(`search_transition_accepts_total{op="` + op + `"}`); v != accepts[op] {
			t.Errorf("op %s: journal accepts %d != counter %d", op, accepts[op], v)
		}
	}
	if v, _ := snap.CounterValue("search_states_deduped_total"); v != prunes {
		t.Errorf("journal prunes %d != deduped counter %d", prunes, v)
	}
	// The journal's own accounting mirrored into the registry.
	if v, ok := snap.CounterValue("journal_events_total"); !ok || v != j.Written() {
		t.Errorf("journal_events_total = %d (ok=%v), want %d", v, ok, j.Written())
	}
}
