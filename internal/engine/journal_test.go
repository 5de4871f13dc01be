package engine

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"etlopt/internal/obs"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// TestJournalDoesNotAffectExecution is the engine half of the
// flight-recorder determinism guard: with the journal (and pprof
// partition labels) attached, both modes at partition counts 1 and 8
// must load bit-identical target rows and report identical per-node row
// counts.
func TestJournalDoesNotAffectExecution(t *testing.T) {
	sc := templates.Fig1Scenario(120, 360)
	configs := []struct {
		name string
		opts []Option
	}{
		{"materialized", nil},
		{"parallel-1", []Option{WithMode(Parallel), WithPartitions(1)}},
		{"parallel-8", []Option{WithMode(Parallel), WithPartitions(8)}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			plain, err := New(sc.Bind(), cfg.opts...).Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			j := obs.NewJournal(&buf, nil)
			opts := append(append([]Option{}, cfg.opts...), WithJournal(j), WithPprofLabels())
			rec, err := New(sc.Bind(), opts...).Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("journal close: %v", err)
			}
			if err := SameRun(plain, rec); err != nil {
				t.Errorf("journal attached: %v", err)
			}

			evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("journal unreadable: %v", err)
			}
			counts := map[string]int{}
			for _, e := range evs {
				counts[e.T]++
			}
			if counts[obs.EventRun] != 2 {
				t.Errorf("%d run events, want start+end", counts[obs.EventRun])
			}
			if counts[obs.EventSummary] != 1 {
				t.Errorf("%d summary events, want 1", counts[obs.EventSummary])
			}
			if counts[obs.EventDrift] == 0 {
				t.Error("no selectivity drift events recorded")
			}
		})
	}
}

// TestJournalEngineEvents checks the mode-specific event payloads of a
// journaled run: materialized runs carry per-node events whose row counts
// match the result, parallel runs additionally carry per-partition batch
// events summing to the node totals plus exchange events for
// key-sensitive operators.
func TestJournalEngineEvents(t *testing.T) {
	sc := templates.Fig1Scenario(120, 360)

	t.Run("materialized nodes", func(t *testing.T) {
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		res, err := New(sc.Bind(), WithJournal(j)).Run(context.Background(), sc.Graph)
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
		nodeRows := map[string]int64{}
		for _, e := range evs {
			if e.T == obs.EventNode {
				if e.Sec < 0 {
					t.Errorf("node %s: negative wall time %v", e.Node, e.Sec)
				}
				nodeRows[e.Node] = e.Rows
			}
		}
		var activities int
		for _, id := range sc.Graph.Nodes() {
			n := sc.Graph.Node(id)
			if n.Kind != workflow.KindActivity {
				continue
			}
			activities++
			key := nodeKey(id, n)
			got, ok := nodeRows[key]
			if !ok || got != int64(res.NodeRows[id]) {
				t.Errorf("node %s: journal rows %d (ok=%v), result %d", key, got, ok, res.NodeRows[id])
			}
		}
		if activities == 0 {
			t.Fatal("scenario has no activities")
		}
	})

	t.Run("parallel batches and exchanges", func(t *testing.T) {
		const parts = 4
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		res, err := New(sc.Bind(), WithMode(Parallel), WithPartitions(parts), WithJournal(j)).
			Run(context.Background(), sc.Graph)
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
		batchSums := map[string]int64{}
		batches := 0
		exchanges := 0
		for _, e := range evs {
			switch e.T {
			case obs.EventBatch:
				if e.Part < 0 || e.Part >= parts {
					t.Errorf("batch partition %d out of range [0,%d)", e.Part, parts)
				}
				batchSums[e.Node] += e.Rows
				batches++
			case obs.EventExchange:
				exchanges++
			}
		}
		if batches == 0 {
			t.Fatal("no batch events recorded")
		}
		if exchanges == 0 {
			t.Error("no exchange events recorded (scenario has key-sensitive operators)")
		}
		for _, id := range sc.Graph.Nodes() {
			n := sc.Graph.Node(id)
			if n.Kind != workflow.KindActivity {
				continue
			}
			key := nodeKey(id, n)
			if got := batchSums[key]; got != int64(res.NodeRows[id]) {
				t.Errorf("node %s: batch rows sum %d, result %d", key, got, res.NodeRows[id])
			}
		}
	})
}

// journalCheckpointActions runs g under a journaled CheckpointRunner on
// dir and returns the node keys each checkpoint action ("staged",
// "restored") appears under in the journal, plus the run error.
func journalCheckpointActions(t *testing.T, ctx context.Context, sc *templates.Scenario, dir string) (map[string][]string, error) {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, nil)
	cr, err := NewCheckpointRunner(New(sc.Bind(), WithJournal(j)), dir)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := cr.Run(ctx, sc.Graph)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	actions := map[string][]string{}
	for _, e := range evs {
		if e.T == obs.EventCheckpoint {
			actions[e.Action] = append(actions[e.Action], e.Node)
		}
	}
	for _, keys := range actions {
		slices.Sort(keys)
	}
	return actions, runErr
}

// TestJournalCheckpointEvents checks the staging narration: a completed
// checkpointed run journals one staged event per stage but the targets',
// under the stage's last member's key, and a resumed run over a pre-seeded
// staging area a restored event for the seeded stage and staged events for
// the others.
func TestJournalCheckpointEvents(t *testing.T) {
	sc := templates.Fig1Scenario(60, 180)
	dir := filepath.Join(t.TempDir(), "stage")
	order, err := sc.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	var stageKeys []string
	for _, ids := range planStages(sc.Graph, order) {
		id := ids[len(ids)-1]
		if n := sc.Graph.Node(id); n.Kind == workflow.KindActivity || len(sc.Graph.Providers(id)) == 0 {
			stageKeys = append(stageKeys, nodeKey(id, n))
		}
	}
	slices.Sort(stageKeys)

	actions, err := journalCheckpointActions(t, context.Background(), sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := actions["staged"]; !slices.Equal(got, stageKeys) {
		t.Fatalf("completed checkpoint run journaled staged events under %v, want one per stage: %v", got, stageKeys)
	}

	// Simulate a crash: a cancelled run writes the manifest but completes
	// no nodes; then seed one source node's staged output by hand so the
	// next run has something to restore.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := journalCheckpointActions(t, ctx, sc, dir); err == nil {
		t.Fatal("cancelled checkpoint run unexpectedly succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatalf("cancelled run left no manifest: %v", err)
	}
	eng := New(sc.Bind())
	seeder, _ := NewCheckpointRunner(eng, dir)
	src := sc.Graph.Sources()[0]
	n := sc.Graph.Node(src)
	rows, err := eng.scanSource(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := seeder.saveStage(src, n.Out, rows, []int{len(rows)}); err != nil {
		t.Fatal(err)
	}

	actions, err = journalCheckpointActions(t, context.Background(), sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	seeded := nodeKey(src, n)
	if got := actions["restored"]; !slices.Equal(got, []string{seeded}) {
		t.Fatalf("resumed checkpoint run journaled restored events under %v, want %s", got, seeded)
	}
	if got, want := actions["staged"], slices.DeleteFunc(stageKeys, func(k string) bool { return k == seeded }); !slices.Equal(got, want) {
		t.Fatalf("resumed checkpoint run journaled staged events under %v, want %v", got, want)
	}
}

// TestCheckpointRunIsObserved pins that checkpointing is a hook on the
// node driver, not a second executor: a checkpointed run in either driver
// mode journals its run boundaries and one node event per activity with
// the clean run's row counts, reports its elapsed time, and counts the
// rows every node emitted.
func TestCheckpointRunIsObserved(t *testing.T) {
	sc := templates.Fig1Scenario(60, 180)
	clean, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"materialized", nil},
		{"parallel-4", []Option{WithMode(Parallel), WithPartitions(4)}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			var buf bytes.Buffer
			j := obs.NewJournal(&buf, nil)
			reg := obs.NewRegistry()
			e := New(sc.Bind(), append([]Option{WithJournal(j), WithMetrics(reg)}, cfg.opts...)...)
			cr, err := NewCheckpointRunner(e, filepath.Join(t.TempDir(), "stage"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := cr.Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Errorf("Elapsed = %v, want > 0", res.Elapsed)
			}
			evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			runs := 0
			nodeEvents := map[string]int{}
			nodeRows := map[string]int64{}
			for _, e := range evs {
				switch e.T {
				case obs.EventRun:
					runs++
				case obs.EventNode:
					nodeEvents[e.Node]++
					nodeRows[e.Node] = e.Rows
				}
			}
			if runs != 2 {
				t.Errorf("%d run events, want start+end", runs)
			}
			snap := reg.Snapshot()
			for id, want := range clean.NodeRows {
				n := sc.Graph.Node(id)
				key := nodeKey(id, n)
				if got, ok := snap.CounterValue(`engine_rows_out_total{node="` + key + `"}`); !ok || got != int64(want) {
					t.Errorf("rows counter for node %s = %d, %v; want %d", key, got, ok, want)
				}
				if n.Kind != workflow.KindActivity {
					continue
				}
				if nodeEvents[key] != 1 || nodeRows[key] != int64(want) {
					t.Errorf("node %s: %d node events carrying %d rows; want 1 carrying %d",
						key, nodeEvents[key], nodeRows[key], want)
				}
			}
		})
	}
}
