package share

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// TestSuiteNodeSpansUnderTheirOwnRun runs a suite at Workers 4, so member
// and producer runs overlap, and requires every journaled node event to
// have its node/<key> span lasting exactly the event's Sec, parented under
// the span of the run that executed it: the node spans under each run span
// are the activities one of the suite's producer and member runs executes,
// and lie inside that run's span.
func TestSuiteNodeSpansUnderTheirOwnRun(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 1207)
	if err != nil {
		t.Fatal(err)
	}
	wfs := suiteWorkflows(scs)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, reg)
	eopts := []engine.Option{engine.WithPartitions(2), engine.WithJournal(j)}
	res, err := RunSuite(context.Background(), wfs, Options{Workers: 4, CacheBytes: -1, Engine: eopts})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stages == 0 {
		t.Fatal("the suite shares no stage: the test would prove nothing")
	}

	// The runs the suite makes, each as the sorted keys of the activities
	// it executes.
	p, err := newPlan(context.Background(), wfs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, st := range p.stages {
		want[activityKeys(st.pw.wf.Graph, executes(st.pw, st.need, st.id))]++
	}
	for _, pw := range p.workflows {
		want[activityKeys(pw.wf.Graph, executes(pw, pw.need, 0))]++
	}

	evs, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{} // "node/<key> <sec>" per node event
	for _, e := range evs {
		if e.T == obs.EventNode {
			events[fmt.Sprintf("node/%s %v", e.Node, e.Sec)]++
		}
	}
	runs := map[int64]obs.SpanRecord{}
	children := map[int64][]string{}
	spans := obs.Spans(evs)
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "engine/") {
			runs[sp.ID] = sp
			children[sp.ID] = nil
		}
	}
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "node/") {
			continue
		}
		events[fmt.Sprintf("%s %v", sp.Name, sp.DurationSeconds)]--
		run, ok := runs[sp.ParentID]
		if !ok || sp.TraceID != run.ID {
			t.Errorf("span %s is not under a run's span: %+v", sp.Name, sp)
			continue
		}
		const slack = 1e-6 // offsets are float seconds
		if sp.StartOffsetSeconds < run.StartOffsetSeconds-slack ||
			sp.StartOffsetSeconds+sp.DurationSeconds > run.StartOffsetSeconds+run.DurationSeconds+slack {
			t.Errorf("span %s [%v, +%v] lies outside its run [%v, +%v]", sp.Name,
				sp.StartOffsetSeconds, sp.DurationSeconds, run.StartOffsetSeconds, run.DurationSeconds)
		}
		children[run.ID] = append(children[run.ID], strings.TrimPrefix(sp.Name, "node/"))
	}
	for k, n := range events {
		if n != 0 {
			t.Errorf("node event vs span %q: %+d unmatched", k, n)
		}
	}
	for _, keys := range children {
		sort.Strings(keys)
		want[strings.Join(keys, " | ")]--
	}
	for keys, n := range want {
		if n != 0 {
			t.Errorf("runs whose node spans are the activities {%s}: %+d unmatched", keys, n)
		}
	}
}

// activityKeys renders the activities of g a run executes as the engine
// keys them, sorted.
func activityKeys(g *workflow.Graph, runs func(workflow.NodeID) bool) string {
	var keys []string
	for _, id := range g.Activities() {
		if runs(id) {
			keys = append(keys, fmt.Sprintf("%d:%s", id, g.Node(id).Label()))
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, " | ")
}

// TestSuiteJournalNamesMemberNodes: a suite's journal speaks of the graphs
// its members wrote. Every node event is keyed <id>:<label> of an activity
// of some member graph, and the suite journals as many node events as its
// producer and member runs execute activities (21 and 43 on these suites).
func TestSuiteJournalNamesMemberNodes(t *testing.T) {
	for _, c := range []struct {
		cat    generator.Category
		events int
	}{{generator.Small, 21}, {generator.Medium, 43}} {
		scs, err := generator.SharedSuite(c.cat, 3, 1207)
		if err != nil {
			t.Fatal(err)
		}
		wfs := suiteWorkflows(scs)
		members := map[string]bool{}
		for _, wf := range wfs {
			for _, id := range wf.Graph.Activities() {
				members[fmt.Sprintf("%d:%s", id, wf.Graph.Node(id).Label())] = true
			}
		}
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		res, err := RunSuite(context.Background(), wfs, Options{Workers: 2, CacheBytes: -1, Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		for _, wr := range res.Workflows {
			if wr.Err != nil {
				t.Fatalf("%s: %v", wr.Name, wr.Err)
			}
		}
		evs, err := obs.ReadJournal(&buf)
		if err != nil {
			t.Fatal(err)
		}
		nodes, foreign := 0, 0
		for _, e := range evs {
			if e.T != obs.EventNode {
				continue
			}
			if nodes++; !members[e.Node] {
				if foreign++; foreign <= 3 {
					t.Errorf("%s: node event %q names no activity of a member graph", c.cat, e.Node)
				}
			}
		}
		if foreign > 0 || nodes != c.events {
			t.Errorf("%s: %d node events, %d of them naming no member node; want %d, none", c.cat, nodes, foreign, c.events)
		}
	}
}
