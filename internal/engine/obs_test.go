package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

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
