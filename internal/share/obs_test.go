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
// and stage runs overlap, and requires every journaled node event to have
// its node/<key> span lasting exactly the event's Sec, parented under the
// span of the run that executed it: the node spans under each run span
// are the activities of exactly one of the suite's stage and residual
// graphs, and lie inside that run's span.
func TestSuiteNodeSpansUnderTheirOwnRun(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 1207)
	if err != nil {
		t.Fatal(err)
	}
	wfs := suiteWorkflows(scs)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, reg)
	eopts := []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(2), engine.WithJournal(j)}
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

	// The graphs the suite executes, each as its sorted activity keys.
	p, err := newPlan(context.Background(), wfs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, st := range p.stages {
		want[activityKeys(st.graph)]++
	}
	for _, pw := range p.workflows {
		want[activityKeys(pw.residual)]++
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

// activityKeys renders a graph's activities as the engine keys them, sorted.
func activityKeys(g *workflow.Graph) string {
	var keys []string
	for _, id := range g.Activities() {
		keys = append(keys, fmt.Sprintf("%d:%s", id, g.Node(id).Label()))
	}
	sort.Strings(keys)
	return strings.Join(keys, " | ")
}
