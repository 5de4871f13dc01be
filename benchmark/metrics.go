package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metricDecl declares one metric. BENCHMARK.json is generated from these
// tables (benchmark -describe) and bench_test.go holds the two together.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves says, for a per-layer metric, which end-to-end metric it is
	// expected to move and on which workload; on every other workload the
	// prediction is no change.
	Moves string
}

// endToEnd are the figures a user of the system sees, reported by every
// workload. failed_share of the issue is the attempted/failed pair of the
// result line; a metric that is always 0 cannot carry a relative bound.
// Wall time is reported relative to the calibration kernel (calibrate.go):
// raw seconds drift by a quarter between runs on the shared hosts this is
// measured on, and are per-layer figures (pass.window_s). Each bound is at
// least three times the widest quartile spread ten runs on ten seeds showed
// on any workload (README.md, "Noise").
var endToEnd = []metricDecl{
	{Name: "window_rel", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "plan_cost_ratio", Unit: "ratio", Better: "lower", Bound: 0.001},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	wide  = "window-wide"
	keyed = "window-keyed"
	deep  = "search-deep"
	spill = "suite-spill"
)

// partitionLocalOps and keySensitiveOps are the operator kernels timed on
// window-wide and window-keyed respectively.
var (
	partitionLocalOps = []string{"filter", "notnull", "convert", "reformat", "project", "union", "sk", "pkcheck_lookup"}
	keySensitiveOps   = []string{"distinct", "pkcheck_group", "aggregate", "join", "diff", "intersect"}
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	const (
		search = "window_rel on " + deep + " (all of it), " + wide + " (its optimizer share)"
		engine = "window_rel, alloc_mb, peak_rss_mb on " + wide + ", " + keyed
		suite  = "window_rel, peak_rss_mb on " + spill
		none   = "none end to end: passes run with it off; recorder budget"
		modes  = "none: informs which execution modes are worth keeping"
	)
	d := []metricDecl{
		{Name: "pass.parse_s", Unit: "s", Better: "lower", Moves: "window_rel on " + deep + " (predicted invisible)"},
		{Name: "pass.optimize_s", Unit: "s", Better: "lower", Moves: search},
		{Name: "pass.scan_s", Unit: "s", Better: "lower", Moves: "window_rel on " + wide + ", " + keyed + ", " + spill},
		{Name: "pass.execute_s", Unit: "s", Better: "lower", Moves: "window_rel on " + wide + ", " + keyed + ", " + spill},
		{Name: "pass.load_s", Unit: "s", Better: "lower", Moves: "window_rel on " + keyed + " (largest target)"},
		{Name: "pass.residual_pct", Unit: "%", Better: "lower", Moves: "none: untraced window minus the five spans"},
		{Name: "pass.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced minus untraced window"},
		{Name: "pass.window_s", Unit: "s", Better: "lower", Moves: "window_rel: the untraced passes' median wall time"},
		{Name: "pass.window_q1_s", Unit: "s", Better: "lower", Moves: "window_rel: the first quartile of the same"},
		{Name: "pass.window_q3_s", Unit: "s", Better: "lower", Moves: "window_rel: the third quartile of the same"},
		{Name: "pass.calibration_s", Unit: "s", Better: "lower", Moves: "none: the calibration kernel's median time, how fast the host was"},

		{Name: "dsl.parse_nodes_per_s", Unit: "1/s", Better: "higher", Moves: "window_rel on " + deep + " (predicted invisible)"},

		{Name: "core.states_visited", Unit: "count", Better: "lower", Moves: search},
		{Name: "core.states_generated", Unit: "count", Better: "lower", Moves: search},
		{Name: "core.states_per_s", Unit: "1/s", Better: "higher", Moves: search},
		{Name: "core.improvement_pct", Unit: "%", Better: "higher", Moves: "plan_cost_ratio on " + wide + ", " + keyed + ", " + deep},

		{Name: "transitions.enumerate_us_per_state", Unit: "us", Better: "lower", Moves: search},
		{Name: "transitions.successors_per_state", Unit: "count", Better: "higher", Moves: search},

		{Name: "cost.evaluate_us", Unit: "us", Better: "lower", Moves: search},
		{Name: "cost.evaluate_incremental_us", Unit: "us", Better: "lower", Moves: search},
		{Name: "cost.memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: search},

		{Name: "workflow.signature_us", Unit: "us", Better: "lower", Moves: search},
		{Name: "workflow.fingerprint_us", Unit: "us", Better: "lower", Moves: search},
		{Name: "workflow.mutate_us", Unit: "us", Better: "lower", Moves: search},
		{Name: "workflow.clone_us", Unit: "us", Better: "lower", Moves: search},
		{Name: "workflow.regenerate_schemata_us", Unit: "us", Better: "lower", Moves: search},

		{Name: "data.scan_rows_per_s", Unit: "1/s", Better: "higher", Moves: "window_rel on " + wide + ", " + keyed},
		{Name: "data.scan_allocs_per_row", Unit: "count", Better: "lower", Moves: "alloc_mb on " + wide + ", " + keyed},
		{Name: "data.load_rows_per_s", Unit: "1/s", Better: "higher", Moves: "window_rel on " + keyed},
		{Name: "data.record_key_ns", Unit: "ns", Better: "lower", Moves: "window_rel on " + keyed},
		{Name: "data.record_key_allocs", Unit: "count", Better: "lower", Moves: "alloc_mb on " + keyed},
		{Name: "data.digest_ns_per_row", Unit: "ns", Better: "lower", Moves: "window_rel on " + spill},

		{Name: "engine.node_rows", Unit: "count", Better: "lower", Moves: engine},
		{Name: "engine.rows_per_s", Unit: "1/s", Better: "higher", Moves: engine},
	}
	for _, op := range partitionLocalOps {
		d = append(d,
			metricDecl{Name: "engine.op_ns_per_row." + op, Unit: "ns", Better: "lower", Moves: "window_rel on " + wide},
			metricDecl{Name: "engine.op_allocs_per_row." + op, Unit: "count", Better: "lower", Moves: "alloc_mb on " + wide})
	}
	for _, op := range keySensitiveOps {
		d = append(d,
			metricDecl{Name: "engine.op_ns_per_row." + op, Unit: "ns", Better: "lower", Moves: "window_rel on " + keyed},
			metricDecl{Name: "engine.op_allocs_per_row." + op, Unit: "count", Better: "lower", Moves: "alloc_mb on " + keyed})
	}
	d = append(d,
		metricDecl{Name: "engine.parallel_pn_over_p1", Unit: "ratio", Better: "lower", Moves: "window_rel on " + keyed},
		metricDecl{Name: "engine.partition_skew", Unit: "ratio", Better: "lower", Moves: "window_rel on " + keyed + " (bounds any exchange speed-up)"},
	)
	for _, mode := range []string{"materialized", "pipelined", "parallel"} {
		d = append(d,
			metricDecl{Name: "engine.mode_window_s." + mode, Unit: "s", Better: "lower", Moves: modes},
			metricDecl{Name: "engine.mode_peak_rss_mb." + mode, Unit: "MB", Better: "lower", Moves: modes})
	}
	return append(d,
		metricDecl{Name: "engine.checkpoint_stage_s", Unit: "s", Better: "lower", Moves: modes},
		metricDecl{Name: "engine.checkpoint_resume_s", Unit: "s", Better: "lower", Moves: modes},
		metricDecl{Name: "engine.checkpoint_bytes", Unit: "B", Better: "lower", Moves: modes},

		metricDecl{Name: "share.nodes_executed", Unit: "count", Better: "lower", Moves: suite},
		metricDecl{Name: "share.nodes_independent", Unit: "count", Better: "lower", Moves: suite},
		metricDecl{Name: "share.reuse_ratio", Unit: "ratio", Better: "higher", Moves: suite},
		metricDecl{Name: "share.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: suite},
		metricDecl{Name: "share.hit_bytes", Unit: "B", Better: "higher", Moves: suite},
		metricDecl{Name: "share.spilled_bytes", Unit: "B", Better: "lower", Moves: suite},
		metricDecl{Name: "share.spill_loads", Unit: "count", Better: "lower", Moves: suite},
		metricDecl{Name: "share.stage_recompute_ratio", Unit: "ratio", Better: "lower", Moves: suite},
		metricDecl{Name: "share.solo_sum_s", Unit: "s", Better: "lower", Moves: "none: what the suite's members cost run one by one"},

		metricDecl{Name: "obs.journal_overhead_pct", Unit: "%", Better: "lower", Moves: none},
		metricDecl{Name: "obs.journal_events", Unit: "count", Better: "lower", Moves: none},
		metricDecl{Name: "obs.journal_dropped", Unit: "count", Better: "lower", Moves: none},
		metricDecl{Name: "obs.metrics_overhead_pct", Unit: "%", Better: "lower", Moves: none},

		metricDecl{Name: absentMetrics, Unit: "count", Better: "lower", Moves: "none: how many of these figures the workload does not measure or etlrun refused; they read 0 in the result line"},
	)
}

// value is one reported metric. Absent marks a per-layer figure the
// workload does not measure or etlrun refused: its Value is 0 and means
// nothing. Set mode prints and stores the mark; the result line of a single
// run has no place for it and carries the count, absentMetrics, instead.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Absent bool    `json:"absent,omitempty"`
}

// absentMetrics counts the per-layer figures a traced run marked absent.
const absentMetrics = "trace.absent_metrics"

// metricSet collects reported values against a declaration table, so a
// name that is not declared cannot be printed.
type metricSet struct {
	decl map[string]metricDecl
	vals map[string]value
}

func newMetricSet(decls []metricDecl) *metricSet {
	s := &metricSet{decl: map[string]metricDecl{}, vals: map[string]value{}}
	for _, d := range decls {
		s.decl[d.Name] = d
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	d, ok := s.decl[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	s.vals[name] = value{Value: v, Unit: d.Unit}
}

// complete marks every declared metric that was not set as absent and
// counts them: the result line carries every declared name on every
// workload.
func (s *metricSet) complete() map[string]value {
	absent := 0
	for name, d := range s.decl {
		if _, ok := s.vals[name]; !ok && name != absentMetrics {
			s.vals[name] = value{Unit: d.Unit, Absent: true}
			absent++
		}
	}
	s.set(absentMetrics, float64(absent))
	return s.vals
}

// benchmarkJSON is the content of BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	return append(raw, '\n'), err
}

// median and quartiles follow Python's statistics.quantiles(n=4), the
// method the driver uses for its spreads.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
