package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
)

// TestMetricsDoNotAffectExecution pins that attaching a registry changes
// nothing about a run's results, in either mode.
func TestMetricsDoNotAffectExecution(t *testing.T) {
	sc := templates.Fig1Scenario(120, 360)
	for _, mode := range []struct {
		name string
		mode Mode
	}{{"materialized", Materialized}, {"parallel", Parallel}} {
		t.Run(mode.name, func(t *testing.T) {
			plain, err := New(sc.Bind(), WithMode(mode.mode)).Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			instr, err := New(sc.Bind(), WithMode(mode.mode), WithMetrics(reg)).Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatal(err)
			}
			for name, rows := range plain.Targets {
				if len(instr.Targets[name]) != len(rows) {
					t.Errorf("target %s: %d rows with metrics, %d without",
						name, len(instr.Targets[name]), len(rows))
				}
			}
			for id, n := range plain.NodeRows {
				if instr.NodeRows[id] != n {
					t.Errorf("node %d: %d rows with metrics, %d without", id, instr.NodeRows[id], n)
				}
			}
		})
	}
}

// TestEngineMetricsSeries checks the exported series of an instrumented
// run: the run counter, per-node emitted rows matching RunResult.NodeRows,
// stage latencies, and the observed-vs-modeled selectivity gauges.
func TestEngineMetricsSeries(t *testing.T) {
	for _, mode := range []Mode{Materialized, Parallel} {
		t.Run(mode.String(), func(t *testing.T) { testEngineMetricsSeries(t, mode) })
	}
}

func testEngineMetricsSeries(t *testing.T, mode Mode) {
	sc := templates.Fig1Scenario(120, 360)
	reg := obs.NewRegistry()
	res, err := New(sc.Bind(), WithMode(mode), WithPartitions(4), WithMetrics(reg)).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if v, ok := snap.CounterValue(`engine_runs_total{mode="` + mode.String() + `"}`); !ok || v != 1 {
		t.Fatalf("engine_runs_total = %d, %v; want 1", v, ok)
	}
	for id, want := range res.NodeRows {
		key := nodeKey(id, sc.Graph.Node(id))
		got, ok := snap.CounterValue(`engine_rows_out_total{node="` + key + `"}`)
		if !ok || got != int64(want) {
			t.Errorf("rows counter for node %s = %d, %v; want %d", key, got, ok, want)
		}
	}
	var sawLatency, sawSel bool
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Series, "engine_node_seconds{") && h.Count > 0 {
			sawLatency = true
		}
	}
	// Every observed-selectivity gauge must pair with a modeled one, and
	// observed values must be valid selectivities for unary activities.
	for _, g := range snap.Gauges {
		if !strings.HasPrefix(g.Series, "engine_selectivity_observed{") {
			continue
		}
		sawSel = true
		modeled := strings.Replace(g.Series, "engine_selectivity_observed", "engine_selectivity_modeled", 1)
		if !snap.Has(modeled) {
			t.Errorf("observed gauge %s has no modeled twin", g.Series)
		}
		if g.Value < 0 || g.Value > 1.5 {
			t.Errorf("implausible observed selectivity %s = %v", g.Series, g.Value)
		}
	}
	if !sawLatency {
		t.Error("no per-node stage latency recorded")
	}
	if !sawSel {
		t.Error("no observed selectivity recorded")
	}
}

// TestCancellationErrorIsDiagnosable covers the wrapped context errors:
// aborted runs must name where they stopped and how many rows had been
// processed, while still satisfying errors.Is(err, context.Canceled).
func TestCancellationErrorIsDiagnosable(t *testing.T) {
	sc := templates.Fig1Scenario(80, 240)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t.Run("materialized", func(t *testing.T) {
		_, err := New(sc.Bind()).Run(ctx, sc.Graph)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "cancelled before node") || !strings.Contains(msg, "rows") {
			t.Fatalf("materialized cancellation error not diagnosable: %q", msg)
		}
	})
}

// TestEveryActivityHasItsSpan runs a workflow whose row-local paths fuse
// into stages and requires one node/<key> span per journaled node event —
// not one per stage — lasting exactly the event's Sec, parented under the
// run's own span.
func TestEveryActivityHasItsSpan(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Small, 11))
	if err != nil {
		t.Fatal(err)
	}
	order, err := sc.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if stages := planStages(sc.Graph, order); len(stages) == len(order) {
		t.Fatal("no stage of the workflow fuses: the test would prove nothing")
	}
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, reg)
	if _, err := New(sc.Bind(), WithMode(Parallel), WithPartitions(4), WithMetrics(reg), WithJournal(j)).Run(context.Background(), sc.Graph); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{} // "node/<key> <sec>" per node event
	events := 0
	for _, e := range evs {
		if e.T == obs.EventNode {
			want[fmt.Sprintf("node/%s %v", e.Node, e.Sec)]++
			events++
		}
	}
	var run obs.SpanRecord
	var nodes []obs.SpanRecord
	for _, sp := range obs.Spans(evs) {
		switch {
		case sp.Name == "engine/parallel":
			run = sp
		case strings.HasPrefix(sp.Name, "node/"):
			nodes = append(nodes, sp)
		}
	}
	if len(nodes) != events {
		t.Errorf("%d node spans for %d node events", len(nodes), events)
	}
	for _, sp := range nodes {
		want[fmt.Sprintf("%s %v", sp.Name, sp.DurationSeconds)]--
		if sp.ParentID != run.ID || sp.TraceID != run.ID || run.ID == 0 {
			t.Errorf("span %s (parent %d) is not under the run's span %d", sp.Name, sp.ParentID, run.ID)
		}
	}
	for k, n := range want {
		if n != 0 {
			t.Errorf("node event vs span %q: %+d unmatched", k, n)
		}
	}
}
