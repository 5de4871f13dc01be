package engine

import (
	"fmt"
	"strconv"

	"etlopt/internal/cost"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// WithMetrics attaches an observability registry to the engine: each run
// then reports per-activity and per-partition output row counts, activity
// seconds, exchanged rows and observed-vs-modeled selectivities, folded
// from the run's events (obs.Recorder). It is for a registry with no
// journal: a journal's own registry is the run's without it (WithJournal).
// Collection is write-only — the engine never reads an instrument back —
// so execution results are identical with metrics on or off. A nil registry
// leaves collection disabled (the default).
func WithMetrics(r *obs.Registry) Option { return func(e *Engine) { e.metrics = r } }

// WithJournal attaches a flight-recorder journal: each run then emits
// typed events (run boundaries, per-node row counts and kernel seconds,
// per-partition batch sizes, repartition exchanges, selectivity drift)
// into the journal's bounded stream, and folds its series into the
// registry the journal was opened with (unless WithMetrics names one).
// The journal is write-only and non-blocking, so execution results are
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
// latency by partition count, and one drift event per activity with
// evidence — its observed selectivity beside the modeled one, the
// empirical check of the §5 cost model's central parameter, which the
// flight-recorder report ranks activities by — but for the quiet ones,
// whose run journaled them.
func (e *Engine) recordRun(g *workflow.Graph, res *RunResult, quiet map[workflow.NodeID]bool, partitions int) {
	if e.rec == nil {
		return
	}
	p := strconv.Itoa(partitions)
	e.metrics.Counter("engine_runs_total", "partitions", p).Inc()
	e.metrics.Histogram("engine_run_seconds", nil, "partitions", p).Observe(res.Elapsed.Seconds())
	for _, d := range cost.SelectivityDeltas(g, res.NodeRows) {
		if !quiet[d.Node] {
			e.rec.Emit(obs.DriftEvent(e.keys[d.Node], d.Observed, d.Modeled))
		}
	}
}
