package engine

import (
	"fmt"
	"strconv"

	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// WithMetrics attaches an observability registry to the engine: each run
// then reports per-activity and per-partition output row counts, activity
// seconds, exchanged rows and observed-vs-modeled selectivities, folded
// from the run's events (obs.Recorder).
// Collection is write-only — the engine never reads an instrument back —
// so execution results are identical with metrics on or off. A nil registry
// leaves collection disabled (the default).
func WithMetrics(r *obs.Registry) Option { return func(e *Engine) { e.metrics = r } }

// WithJournal attaches a flight-recorder journal: each run then emits
// typed events (run boundaries, per-node row counts and kernel seconds,
// per-partition batch sizes, repartition exchanges, selectivity drift)
// into the journal's bounded stream. Like the metrics registry, the
// journal is write-only and non-blocking, so execution results are
// bit-identical with journaling on or off (pinned by
// TestJournalDoesNotAffectExecution). A nil journal disables emission.
func WithJournal(j *obs.Journal) Option { return func(e *Engine) { e.journal = j } }

// WithPprofLabels tags the node driver's partition workers with
// runtime/pprof labels (etl=engine, etl_node, etl_partition), so CPU
// profiles attribute samples to the node and partition that burned them.
func WithPprofLabels() Option { return func(e *Engine) { e.pprofLabels = true } }

// nodeKey renders the per-node metric label: the node ID plus its
// human-readable label, e.g. "7:σ(COST>=100)".
func nodeKey(id workflow.NodeID, n *workflow.Node) string {
	return fmt.Sprintf("%d:%s", id, n.Label())
}

// keyNodes renders each node's label once for the run's events and
// registers the run's per-node and per-partition series, so a snapshot
// carries the whole schema, zeros included, however far the run gets.
func (e *Engine) keyNodes(g *workflow.Graph, p int) {
	if e.rec == nil {
		return
	}
	e.keys = make(map[workflow.NodeID]string, g.Len())
	for q := 0; q < p; q++ {
		e.metrics.Gauge("engine_partition_busy_seconds", "partition", strconv.Itoa(q))
	}
	for _, id := range g.Nodes() {
		key := nodeKey(id, g.Node(id))
		e.keys[id] = key
		e.metrics.Counter("engine_rows_out_total", "node", key)
		if g.Node(id).Kind == workflow.KindActivity {
			e.rec.Declare(obs.NodeEvent(key, 0, 0))
			e.rec.Declare(obs.ExchangeEvent(key, 0))
		}
		for q := 0; q < p; q++ {
			e.rec.Declare(obs.BatchEvent(key, q, 0))
		}
	}
}

// recordRun exports a completed run's whole-run facts: the run counter and
// latency by mode, and one drift event per activity with evidence — its
// observed selectivity beside the modeled one, the empirical check of the
// §5 cost model's central parameter, which the flight-recorder report ranks
// activities by.
func (e *Engine) recordRun(g *workflow.Graph, res *RunResult, modeName string) {
	if e.rec == nil {
		return
	}
	e.metrics.Counter("engine_runs_total", "mode", modeName).Inc()
	e.metrics.Histogram("engine_run_seconds", nil, "mode", modeName).Observe(res.Elapsed.Seconds())
	// Observed selectivity uses the cost model's own formulas (see
	// cost.Calibrate / cost.SelectivityDeltas): out/in for unaries,
	// out/(in₁·in₂) for joins; unions carry no selectivity, and activities
	// with empty or unrecorded inputs offer no evidence.
	order, err := g.TopoSort()
	if err != nil {
		return
	}
	for _, id := range order {
		n := g.Node(id)
		if n.Kind != workflow.KindActivity || n.Act.Sem.Op == workflow.OpUnion {
			continue
		}
		rows, ok := res.NodeRows[id]
		if !ok {
			continue
		}
		preds := g.Providers(id)
		denom := 1.0
		evidence := len(preds) > 0
		for i, p := range preds {
			r, ok := res.NodeRows[p]
			if !ok || r == 0 {
				evidence = false
				break
			}
			if i == 0 || n.Act.Sem.Op == workflow.OpJoin {
				denom *= float64(r)
			}
		}
		if !evidence {
			continue
		}
		e.rec.Emit(obs.DriftEvent(e.keys[id], float64(rows)/denom, n.Act.Sel))
	}
}
