package engine

import (
	"fmt"

	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// WithMetrics attaches an observability registry to the engine: each run
// then reports per-activity and per-partition output row counts, stage
// latencies, exchanged rows and observed-vs-modeled selectivities.
// Collection is write-only — the engine never reads an instrument back —
// so execution results are identical with metrics on or off. A nil registry
// leaves collection disabled (the default).
func WithMetrics(r *obs.Registry) Option { return func(e *Engine) { e.metrics = r } }

// WithJournal attaches a flight-recorder journal: each run then emits
// typed events (run boundaries, per-node row counts and wall times,
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

// runMetrics carries the per-node instrument handles of one run,
// prefetched before execution so hot paths never touch the registry's
// mutex, plus the run's journal handle and node-key cache. A nil
// *runMetrics (metrics and journal both disabled) makes every accessor
// return a nil handle, which no-ops.
type runMetrics struct {
	rowsOut   map[workflow.NodeID]*obs.Counter   // engine_rows_out_total{node}
	nodeSec   map[workflow.NodeID]*obs.Histogram // engine_node_seconds{node}
	partRows  map[workflow.NodeID][]*obs.Counter // engine_partition_rows_out_total{node,partition}
	partBusy  []*obs.Gauge                       // engine_partition_busy_seconds{partition}
	exchanged map[workflow.NodeID]*obs.Counter   // engine_exchange_rows_total{node}

	// j is the run's flight recorder (nil: journaling off); keys caches
	// each node's metric label so journal emission never re-renders it.
	j    *obs.Journal
	keys map[workflow.NodeID]string
	// span is the run's mode span; per-node spans child from it so the
	// trace export shows node execution nested under the run.
	span *obs.Span
}

// nodeKey renders the per-node metric label: the node ID plus its
// human-readable label, e.g. "7:σ(COST>=100)".
func nodeKey(id workflow.NodeID, n *workflow.Node) string {
	return fmt.Sprintf("%d:%s", id, n.Label())
}

// newRunMetrics prefetches handles for every node of the graph and each of
// the run's partitions (1 in Materialized mode); nil when the engine has
// neither a registry nor a journal. With a journal but no registry every
// instrument handle is nil (the nil registry hands out nil handles) and
// only the journal side is live.
func (e *Engine) newRunMetrics(g *workflow.Graph, partitions int) *runMetrics {
	if e.metrics == nil && e.journal == nil {
		return nil
	}
	m := &runMetrics{
		rowsOut:   make(map[workflow.NodeID]*obs.Counter),
		nodeSec:   make(map[workflow.NodeID]*obs.Histogram),
		partRows:  make(map[workflow.NodeID][]*obs.Counter),
		partBusy:  make([]*obs.Gauge, partitions),
		exchanged: make(map[workflow.NodeID]*obs.Counter),
		j:         e.journal,
		keys:      make(map[workflow.NodeID]string),
	}
	for p := range m.partBusy {
		m.partBusy[p] = e.metrics.Gauge("engine_partition_busy_seconds", "partition", fmt.Sprint(p))
	}
	for _, id := range g.Nodes() {
		key := nodeKey(id, g.Node(id))
		m.keys[id] = key
		m.rowsOut[id] = e.metrics.Counter("engine_rows_out_total", "node", key)
		if g.Node(id).Kind == workflow.KindActivity {
			m.nodeSec[id] = e.metrics.Histogram("engine_node_seconds", nil, "node", key)
			m.exchanged[id] = e.metrics.Counter("engine_exchange_rows_total", "node", key)
		}
		handles := make([]*obs.Counter, partitions)
		for p := range handles {
			handles[p] = e.metrics.Counter("engine_partition_rows_out_total",
				"node", key, "partition", fmt.Sprint(p))
		}
		m.partRows[id] = handles
	}
	return m
}

// The accessors below are safe on a nil receiver and safe for concurrent
// use after newRunMetrics returns (the maps are read-only from then on).

func (m *runMetrics) rows(id workflow.NodeID) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.rowsOut[id]
}

// partRow returns the rows-out counter of one partition of a node; nil
// when metrics are disabled.
func (m *runMetrics) partRow(id workflow.NodeID, p int) *obs.Counter {
	if m == nil {
		return nil
	}
	if hs := m.partRows[id]; p < len(hs) {
		return hs[p]
	}
	return nil
}

// busy returns the busy-seconds gauge of one partition worker.
func (m *runMetrics) busy(p int) *obs.Gauge {
	if m == nil || p >= len(m.partBusy) {
		return nil
	}
	return m.partBusy[p]
}

// exchange returns the exchanged-rows counter of a node.
func (m *runMetrics) exchange(id workflow.NodeID) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.exchanged[id]
}

// nodeSpan opens a per-node child span under the mode span; nil (no-op
// End) when spans are disabled.
func (m *runMetrics) nodeSpan(id workflow.NodeID) *obs.Span {
	if m == nil || m.span == nil {
		return nil
	}
	return m.span.Child("node/" + m.keys[id])
}

// nodeDone records one completed activity of the node driver: its seconds
// into the node's stage histogram, and rows emitted and seconds spent as
// the journal's node event.
func (m *runMetrics) nodeDone(id workflow.NodeID, rows int, sec float64) {
	if m == nil {
		return
	}
	m.nodeSec[id].Observe(sec)
	if m.j != nil {
		m.j.Emit(obs.NodeEvent(m.keys[id], rows, sec))
	}
}

// batchEvent journals the rows one partition of a node emitted.
func (m *runMetrics) batchEvent(id workflow.NodeID, part, rows int) {
	if m != nil && m.j != nil {
		m.j.Emit(obs.BatchEvent(m.keys[id], part, rows))
	}
}

// exchangeEvent journals a repartition exchange routing rows rows.
func (m *runMetrics) exchangeEvent(id workflow.NodeID, rows int) {
	if m != nil && m.j != nil {
		m.j.Emit(obs.ExchangeEvent(m.keys[id], rows))
	}
}

// recordRun exports a completed run's whole-run series: the run counter
// and latency by mode and the observed-vs-modeled selectivity gauges — the empirical check of the §5
// cost model's central parameter. With a journal attached each
// selectivity observation is also emitted as a drift event, so the
// flight-recorder report can rank activities by model error.
func (e *Engine) recordRun(g *workflow.Graph, res *RunResult, modeName string) {
	if e.metrics == nil && e.journal == nil {
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
		key := nodeKey(id, n)
		observed := float64(rows) / denom
		e.metrics.Gauge("engine_selectivity_observed", "node", key).Set(observed)
		e.metrics.Gauge("engine_selectivity_modeled", "node", key).Set(n.Act.Sel)
		if e.journal != nil {
			e.journal.Emit(obs.DriftEvent(key, observed, n.Act.Sel))
		}
	}
}
