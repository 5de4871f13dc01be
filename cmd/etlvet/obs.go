package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"etlopt/internal/analysis"
	"etlopt/internal/obs"
	"etlopt/internal/stats"
)

// This file is `etlvet obs`: the flight-recorder report. It reads a
// -journal JSONL file, renders a human-readable run report (run header,
// phase timeline, top-k slow nodes, selectivity drift, shared-work cache
// activity, transition funnel, checkpoint and drop accounting) to stdout —
// or, with -format trace, the journal's spans as trace-event JSON, with
// -format snapshot the metrics snapshot its trailer carries — and returns
// integrity problems as findings through the shared report layer, so
// -format and exit codes behave like every other subcommand.

// obsStats is the aggregation of one journal: everything the report
// sections print, computed in a single pass over the events.
type obsStats struct {
	events   []obs.Event
	summary  *obs.Event
	maxOff   float64
	runs     []obs.Event                 // run start/end boundaries, file order
	phases   []obsPhase                  // phase boundaries, paired in file order
	nodes    map[string]*obsNode         // per-node execution aggregate
	drift    map[string][2]float64       // node -> last {observed, modeled}
	shared   map[string][2]int64         // shared-cache action -> {count, bytes}
	funnel   map[string]map[string]int64 // transition op -> action -> count
	chkpt    map[string]int64            // checkpoint action -> count
	faults   map[string]int64            // "site (kind)" -> injected fault count
	retries  int64
	retrySec float64 // total backoff delay spent across retries
	resRows  int64   // rows restored from checkpoint stages
	batches  int64
	exchange int64 // total rows through repartition exchanges
}

type obsPhase struct {
	name     string
	start    float64
	end      float64
	finished bool
}

type obsNode struct {
	name  string
	execs int64
	rows  int64
	sec   float64
}

// aggregateJournal folds the event stream into the report aggregates.
func aggregateJournal(events []obs.Event) *obsStats {
	st := &obsStats{
		events: events,
		nodes:  map[string]*obsNode{},
		drift:  map[string][2]float64{},
		shared: map[string][2]int64{},
		funnel: map[string]map[string]int64{},
		chkpt:  map[string]int64{},
		faults: map[string]int64{},
	}
	open := map[string]int{} // phase name -> index of unmatched start
	for i := range events {
		e := events[i]
		if e.Off > st.maxOff {
			st.maxOff = e.Off
		}
		switch e.T {
		case obs.EventSummary:
			st.summary = &events[i]
		case obs.EventRun:
			st.runs = append(st.runs, e)
		case obs.EventPhase:
			switch e.Action {
			case "start":
				open[e.Op] = len(st.phases)
				st.phases = append(st.phases, obsPhase{name: e.Op, start: e.Off})
			case "end":
				if idx, ok := open[e.Op]; ok {
					st.phases[idx].end = e.Off
					st.phases[idx].finished = true
					delete(open, e.Op)
				} else {
					st.phases = append(st.phases, obsPhase{name: e.Op, end: e.Off, finished: true})
				}
			}
		case obs.EventTransition:
			m := st.funnel[e.Op]
			if m == nil {
				m = map[string]int64{}
				st.funnel[e.Op] = m
			}
			m[e.Action] += max(e.Rows, 1) // a batched attempt record carries its count
		case obs.EventCache:
			s := st.shared[e.Action]
			s[0]++
			s[1] += e.Rows
			st.shared[e.Action] = s
		case obs.EventNode:
			n := st.nodes[e.Node]
			if n == nil {
				n = &obsNode{name: e.Node}
				st.nodes[e.Node] = n
			}
			n.execs++
			n.rows += e.Rows
			n.sec += e.Sec
		case obs.EventBatch:
			st.batches++
		case obs.EventExchange:
			st.exchange += e.Rows
		case obs.EventCheckpoint:
			st.chkpt[e.Action]++
			if e.Action == "restored" {
				st.resRows += e.Rows
			}
		case obs.EventFault:
			// FaultEvent stores the injection site in Action and the kind
			// in Detail.
			st.faults[e.Action+" ("+e.Detail+")"]++
		case obs.EventRetry:
			st.retries++
			st.retrySec += e.Sec
		case obs.EventDrift:
			st.drift[e.Node] = [2]float64{e.Observed, e.Modeled}
		}
	}
	return st
}

// auditObs returns the integrity findings for a parsed journal: a
// missing or inconsistent summary trailer or metrics snapshot, write
// failures, and malformed per-event payloads. Drops are legal (the
// journal is lossy by design) and surface as advice, not warnings.
func (st *obsStats) auditObs(path string) []analysis.Finding {
	var out []analysis.Finding
	report := func(sev analysis.Severity, format string, args ...interface{}) {
		out = append(out, analysis.Finding{
			Severity: sev, Check: "obs", Node: -1,
			File: path, Message: fmt.Sprintf(format, args...),
		})
	}
	if len(st.events) == 0 {
		report(analysis.Warning, "journal is empty")
		return out
	}
	if st.summary == nil {
		report(analysis.Warning, "journal has no summary trailer — the recording run did not close it (crash or truncation?)")
	} else {
		if st.summary != &st.events[len(st.events)-1] {
			report(analysis.Warning, "summary event is not the last record")
		}
		body := int64(len(st.events) - 1)
		if st.summary.Events != body {
			report(analysis.Warning, "summary claims %d events, file holds %d", st.summary.Events, body)
		}
		if st.summary.Errors > 0 {
			report(analysis.Warning, "%d event(s) lost to write failures", st.summary.Errors)
		}
		if st.summary.Dropped > 0 {
			report(analysis.Advice, "%d event(s) dropped under buffer pressure (the journal is lossy by design; totals below are partial)", st.summary.Dropped)
		}
		if snap := st.summary.Snapshot; snap != nil {
			auditSnapshot(snap, func(format string, args ...interface{}) {
				report(analysis.Warning, "snapshot: "+format, args...)
			})
		}
	}
	if len(st.shared) > 0 {
		if hits, lookups := st.shared["hit"][0], st.shared["lookup"][0]; hits > lookups {
			report(analysis.Warning, "shared cache journaled %d hits but only %d lookups — the accounting is corrupt", hits, lookups)
		}
		if ev, ad := st.shared["evict"][1], st.shared["admit"][1]; ev > ad {
			report(analysis.Warning, "shared cache eviction freed %d bytes but admission only recorded %d", ev, ad)
		}
	}
	seen := map[int64]bool{}
	for _, e := range st.events {
		if e.Off < 0 {
			report(analysis.Warning, "event seq %d has a negative time offset (%v)", e.Seq, e.Off)
		}
		if seen[e.Seq] {
			report(analysis.Warning, "duplicate event sequence number %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.T == obs.EventNode && e.Sec < 0 {
			report(analysis.Warning, "node %s has negative wall time (%v)", e.Node, e.Sec)
		}
		if e.T == obs.EventDrift && (badRatio(e.Observed) || badRatio(e.Modeled)) {
			report(analysis.Warning, "drift for node %s has a non-finite selectivity (observed %v, modeled %v)", e.Node, e.Observed, e.Modeled)
		}
		if e.T == obs.EventFault && (e.Action == "" || e.Detail == "") {
			report(analysis.Warning, "fault event seq %d lacks site/kind attribution", e.Seq)
		}
		if e.T == obs.EventRetry && e.Attempt < 2 {
			report(analysis.Warning, "retry event seq %d claims attempt %d; retries start at 2", e.Seq, e.Attempt)
		}
	}
	return out
}

func badRatio(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// auditSnapshot reports a metrics snapshot's internal inconsistencies:
// negative counters and histogram counts, non-finite gauges, bucket counts
// that are not one per bound plus the overflow or do not sum to the count.
func auditSnapshot(snap *obs.Snapshot, report func(format string, args ...interface{})) {
	for _, c := range snap.Counters {
		if c.Value < 0 {
			report("counter %s is negative (%d)", c.Series, c.Value)
		}
	}
	for _, g := range snap.Gauges {
		if badRatio(g.Value) {
			report("gauge %s is not finite (%v)", g.Series, g.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Count < 0 {
			report("histogram %s has negative count (%d)", h.Series, h.Count)
			continue
		}
		if len(h.BucketCounts) != len(h.Bounds)+1 {
			report("histogram %s has %d bucket counts for %d bounds (want bounds+1)",
				h.Series, len(h.BucketCounts), len(h.Bounds))
			continue
		}
		var sum int64
		for _, n := range h.BucketCounts {
			if n < 0 {
				report("histogram %s has a negative bucket count (%d)", h.Series, n)
			}
			sum += n
		}
		if sum != h.Count {
			report("histogram %s bucket counts sum to %d, count is %d", h.Series, sum, h.Count)
		}
	}
}

// renderObs reads one journal, writes its view for o.format to w — the
// run report for text, obs.Spans as trace-event JSON for trace, the
// trailer's metrics snapshot as JSON for snapshot, nothing for json, which
// prints findings only — and returns its integrity findings.
// A journal without a snapshot has no snapshot view: that is an error.
func renderObs(w io.Writer, path string, o *options) ([]analysis.Finding, error) {
	events, err := obs.ReadJournalFile(path)
	if err != nil {
		return nil, err
	}
	st := aggregateJournal(events)
	findings := st.auditObs(path)
	switch {
	case o.format == "trace":
		return findings, obs.WriteTraceEvents(w, obs.Spans(events))
	case o.format == "snapshot":
		switch {
		case st.summary == nil:
			return nil, fmt.Errorf("no metrics snapshot: the journal has no summary trailer (the recording run did not close it)")
		case st.summary.Snapshot == nil:
			return nil, fmt.Errorf("no metrics snapshot: the summary trailer carries none (the journal was recorded without a registry)")
		}
		return findings, st.summary.Snapshot.WriteJSON(w)
	case o.format == "text" && len(st.events) > 0:
		st.render(w, path, o.topK)
	}
	return findings, nil
}

// render writes the human-readable run report of one journal.
func (st *obsStats) render(w io.Writer, path string, topK int) {
	fmt.Fprintf(w, "== %s ==\n", path)
	for _, r := range st.runs {
		fmt.Fprintf(w, "run %-5s %-24s at %8.3fs\n", r.Action, r.Detail, r.Off)
	}
	fmt.Fprintf(w, "%d event(s) over %.3fs", len(st.events), st.maxOff)
	if st.summary != nil {
		fmt.Fprintf(w, "; %d dropped, %d write error(s)", st.summary.Dropped, st.summary.Errors)
	}
	fmt.Fprintln(w)

	if len(st.phases) > 0 {
		fmt.Fprintln(w, "\nphase timeline:")
		t := stats.NewTable("phase", "start", "end", "duration")
		for _, p := range st.phases {
			end, dur := "?", "?"
			if p.finished {
				end = fmt.Sprintf("%.3fs", p.end)
				dur = fmt.Sprintf("%.3fs", p.end-p.start)
			}
			t.AddRow(p.name, fmt.Sprintf("%.3fs", p.start), end, dur)
		}
		fmt.Fprint(w, t.String())
	}

	if len(st.funnel) > 0 {
		fmt.Fprintln(w, "\ntransition funnel:")
		t := stats.NewTable("op", "attempts", "accepts", "prunes", "best")
		for _, op := range sortedKeys(st.funnel) {
			m := st.funnel[op]
			t.AddRow(op, m["attempt"], m["accept"], m["prune"], m["best"])
		}
		fmt.Fprint(w, t.String())
	}

	if len(st.shared) > 0 {
		fmt.Fprintln(w, "\nshared cache activity:")
		t := stats.NewTable("action", "count", "bytes")
		for _, action := range []string{"lookup", "hit", "miss", "admit", "evict", "spill"} {
			if s, ok := st.shared[action]; ok {
				t.AddRow(action, s[0], s[1])
			}
		}
		fmt.Fprint(w, t.String())
		fmt.Fprintf(w, "  %d byte(s) of recomputation saved (served from the shared cache)\n", st.shared["hit"][1])
	}

	if len(st.nodes) > 0 {
		nodes := make([]*obsNode, 0, len(st.nodes))
		for _, n := range st.nodes {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].sec != nodes[j].sec {
				return nodes[i].sec > nodes[j].sec
			}
			return nodes[i].name < nodes[j].name
		})
		shown := len(nodes)
		if topK > 0 && shown > topK {
			shown = topK
		}
		fmt.Fprintf(w, "\ntop %d slow node(s) of %d:\n", shown, len(nodes))
		t := stats.NewTable("node", "execs", "rows", "total sec", "rows/sec")
		for _, n := range nodes[:shown] {
			rps := "-"
			if n.sec > 0 {
				rps = fmt.Sprintf("%.0f", float64(n.rows)/n.sec)
			}
			t.AddRow(n.name, n.execs, n.rows, fmt.Sprintf("%.4f", n.sec), rps)
		}
		fmt.Fprint(w, t.String())
	}

	if len(st.drift) > 0 {
		type driftRow struct {
			node              string
			observed, modeled float64
		}
		rows := make([]driftRow, 0, len(st.drift))
		for node, d := range st.drift {
			rows = append(rows, driftRow{node, d[0], d[1]})
		}
		sort.Slice(rows, func(i, j int) bool {
			di := math.Abs(rows[i].observed - rows[i].modeled)
			dj := math.Abs(rows[j].observed - rows[j].modeled)
			if di != dj {
				return di > dj
			}
			return rows[i].node < rows[j].node
		})
		shown := len(rows)
		if topK > 0 && shown > topK {
			shown = topK
		}
		fmt.Fprintf(w, "\nselectivity drift (observed vs modeled), top %d of %d:\n", shown, len(rows))
		t := stats.NewTable("node", "observed", "modeled", "drift")
		for _, r := range rows[:shown] {
			t.AddRow(r.node, fmt.Sprintf("%.4f", r.observed), fmt.Sprintf("%.4f", r.modeled),
				fmt.Sprintf("%+.4f", r.observed-r.modeled))
		}
		fmt.Fprint(w, t.String())
	}

	if st.batches > 0 || st.exchange > 0 || len(st.chkpt) > 0 {
		fmt.Fprintln(w, "\nengine activity:")
		if st.batches > 0 {
			fmt.Fprintf(w, "  %d partition batch(es)\n", st.batches)
		}
		if st.exchange > 0 {
			fmt.Fprintf(w, "  %d row(s) through repartition exchanges\n", st.exchange)
		}
		for _, action := range sortedKeys(st.chkpt) {
			fmt.Fprintf(w, "  %d checkpoint node(s) %s\n", st.chkpt[action], action)
		}
	}

	if len(st.faults) > 0 || st.retries > 0 || st.chkpt["restored"] > 0 {
		fmt.Fprintln(w, "\nfault & recovery activity:")
		for _, key := range sortedKeys(st.faults) {
			fmt.Fprintf(w, "  %d fault(s) injected at %s\n", st.faults[key], key)
		}
		if st.retries > 0 {
			fmt.Fprintf(w, "  %d retry attempt(s), %.4fs total backoff\n", st.retries, st.retrySec)
		}
		if n := st.chkpt["restored"]; n > 0 {
			fmt.Fprintf(w, "  %d node(s) resumed from checkpoint, %d row(s) restored\n", n, st.resRows)
		}
	}
	fmt.Fprintln(w)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
