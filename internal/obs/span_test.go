package obs

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// journalOf records fn's events into a journal and reads them back.
func journalOf(t testing.TB, fn func(j *Journal)) []Event {
	t.Helper()
	var buf bytes.Buffer
	j := NewJournal(&buf, nil)
	fn(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if d := j.Dropped(); d != 0 {
		t.Fatalf("the journal dropped %d events", d)
	}
	evs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// runSpan records one root span named name: a run's start and end events
// through a recorder of its own.
func runSpan(j *Journal, name string) {
	rec := NewRecorder(nil, j)
	rec.Emit(RunEvent("start", name))
	rec.Emit(RunEvent("end", name))
}

// TestSpanTraceTree derives a run's trace tree from its journal: the run's
// start/end pair is the root, a phase's pair and a node event are spans
// under it, and another recorder's run is a trace of its own.
func TestSpanTraceTree(t *testing.T) {
	evs := journalOf(t, func(j *Journal) {
		rec := NewRecorder(nil, j)
		rec.Emit(RunEvent("start", "run"))
		end := rec.Phase("phase")
		rec.Emit(NodeEvent("step", 3, 0.25))
		end()
		rec.Emit(RunEvent("end", "run"))
		runSpan(j, "other")
	})
	recs := Spans(evs)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	run, phase, step, oth := byName["run"], byName["phase"], byName["node/step"], byName["other"]
	if run.ID == 0 || run.TraceID != run.ID || run.ParentID != 0 {
		t.Errorf("root record ids: %+v", run)
	}
	if phase.TraceID != run.ID || phase.ParentID != run.ID || phase.Parent != "run" || phase.Depth != 1 {
		t.Errorf("child must inherit trace and point at parent: %+v (root %d)", phase, run.ID)
	}
	if step.TraceID != run.ID || step.ParentID != run.ID || step.Depth != 1 || step.DurationSeconds != 0.25 {
		t.Errorf("a node span lies under its run and lasts the event's Sec: %+v", step)
	}
	for _, e := range evs {
		if e.T == EventNode && step.StartOffsetSeconds != e.Off-e.Sec {
			t.Errorf("a node span ends at its event: starts %v, event at %v lasting %v", step.StartOffsetSeconds, e.Off, e.Sec)
		}
	}
	if oth.TraceID == run.ID || oth.TraceID != oth.ID {
		t.Errorf("separate root must start its own trace: %+v", oth)
	}
	ids := map[int64]bool{run.ID: true, phase.ID: true, step.ID: true, oth.ID: true}
	if len(ids) != 4 {
		t.Error("span IDs must be unique")
	}
}

// TestSpansKeepConcurrentRunsApart records interleaved runs into one
// journal, each through its own recorder: every node span lies under the
// span of the run that emitted it, however the events interleave.
func TestSpansKeepConcurrentRunsApart(t *testing.T) {
	const runs, nodes = 8, 50
	evs := journalOf(t, func(j *Journal) {
		var wg sync.WaitGroup
		for r := 0; r < runs; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rec := NewRecorder(nil, j)
				name := fmt.Sprintf("run-%d", r)
				rec.Emit(RunEvent("start", name))
				for i := 0; i < nodes; i++ {
					rec.Emit(NodeEvent(name, i, 0))
				}
				rec.Emit(RunEvent("end", name))
			}(r)
		}
		wg.Wait()
	})
	spans := Spans(evs)
	if len(spans) != runs*(nodes+1) {
		t.Fatalf("%d spans, want %d", len(spans), runs*(nodes+1))
	}
	for _, sp := range spans {
		if sp.ParentID == 0 {
			continue
		}
		if "node/"+sp.Parent != sp.Name || spans[sp.ParentID-1].Name != sp.Parent {
			t.Errorf("span %s lies under %s (span %d)", sp.Name, sp.Parent, sp.ParentID)
		}
	}
	// The journal's file order is not its emission order; Seq is.
	shuffled := slices.Clone(evs)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if !reflect.DeepEqual(Spans(shuffled), spans) {
		t.Error("the spans of a journal depend on the order of its lines")
	}
}

// TestSpansFromDamagedJournal: a start without its end and an end without
// its start give no span, and what would have lain under a missing run
// span is a root of its own.
func TestSpansFromDamagedJournal(t *testing.T) {
	evs := []Event{
		{Seq: 1, T: EventRun, Run: 1, Action: "start", Detail: "whole", Off: 1},
		{Seq: 2, T: EventNode, Run: 1, Node: "a", Off: 3, Sec: 0.5},
		{Seq: 3, T: EventRun, Run: 1, Action: "end", Off: 4},
		{Seq: 4, T: EventRun, Run: 2, Action: "start", Detail: "crashed", Off: 5},
		{Seq: 5, T: EventNode, Run: 2, Node: "b", Off: 6, Sec: 1},
		{Seq: 6, T: EventPhase, Run: 3, Op: "p", Action: "end", Off: 7},
		{Seq: 7, T: EventPhase, Run: 3, Op: "q", Action: "start", Off: 8},
		{Seq: 8, T: EventNode, Run: 3, Node: "c", Off: 9, Sec: 2},
		{Seq: 9, T: EventSummary, Off: 10},
	}
	want := []SpanRecord{
		{ID: 1, TraceID: 1, Name: "whole", StartOffsetSeconds: 1, DurationSeconds: 3},
		{ID: 2, ParentID: 1, TraceID: 1, Name: "node/a", Parent: "whole", Depth: 1, StartOffsetSeconds: 2.5, DurationSeconds: 0.5},
		{ID: 3, TraceID: 3, Name: "node/b", StartOffsetSeconds: 5, DurationSeconds: 1},
		{ID: 4, TraceID: 4, Name: "node/c", StartOffsetSeconds: 7, DurationSeconds: 2},
	}
	if got := Spans(evs); !reflect.DeepEqual(got, want) {
		t.Errorf("spans:\n  got  %+v\n  want %+v", got, want)
	}
	slices.Reverse(evs)
	if got := Spans(evs); !reflect.DeepEqual(got, want) {
		t.Errorf("spans of the reversed journal:\n  got  %+v\n  want %+v", got, want)
	}
}

// fuzzEvents decodes raw into events, four bytes each: kind and action,
// run, Seq (repeats and negatives included) and a pair of times for Off
// and Sec drawn from a table holding negative, huge and non-finite values.
func fuzzEvents(raw []byte) []Event {
	times := [...]float64{0, 0.25, 1, 3.5, -1, -1e300, 1e300, math.MaxFloat64, math.Inf(1), math.NaN()}
	var evs []Event
	for ; len(raw) >= 4; raw = raw[4:] {
		kind, run := raw[0], int64(raw[1]%6)
		e := Event{Seq: int64(raw[2]) - 16, Run: run, Off: times[int(raw[3]>>4)%len(times)]}
		action := [...]string{"start", "end"}[kind&1]
		switch kind >> 1 % 4 {
		case 0:
			e.T, e.Action, e.Detail = EventRun, action, fmt.Sprintf("r%d", run)
		case 1:
			e.T, e.Action, e.Op = EventPhase, action, fmt.Sprintf("p%d", kind>>3%3)
		case 2:
			e.T, e.Node, e.Sec = EventNode, fmt.Sprintf("n%d", kind>>3%4), times[int(raw[3]&15)%len(times)]
		default:
			e.T = EventBatch
		}
		evs = append(evs, e)
	}
	return evs
}

// FuzzSpans derives spans from arbitrary event sequences — shuffled and
// repeated Seq, dropped starts and ends, negative, huge and non-finite
// times, many runs interleaved. Spans never panics, every ParentID names a
// returned span, and every node event maps to exactly one node span: under
// its run's root span when the run has one (a start followed by an end),
// a root of its own otherwise.
func FuzzSpans(f *testing.F) {
	// run 1: start, a phase around two nodes, end; run 2 interleaved and
	// never ended; a node of run 3, which has no start at all.
	f.Add([]byte{
		0, 1, 17, 0x10, 2, 1, 18, 0x10, 4, 1, 19, 0x21, 4, 2, 20, 0x21,
		0, 2, 21, 0x20, 12, 1, 22, 0x32, 3, 1, 23, 0x30, 1, 1, 24, 0x30,
		4, 3, 25, 0x31,
	})
	f.Add([]byte{1, 1, 1, 0, 0, 1, 2, 0, 4, 1, 0, 0x49, 4, 1, 0, 0x58}) // end before start, repeated Seq
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0x77})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		evs := fuzzEvents(raw)
		spans := Spans(evs)

		byID := map[int64]SpanRecord{}
		for _, sp := range spans {
			byID[sp.ID] = sp
		}
		for _, sp := range spans {
			if sp.ParentID == 0 {
				continue
			}
			parent, ok := byID[sp.ParentID]
			if !ok {
				t.Fatalf("span %+v names parent %d, which is not a returned span", sp, sp.ParentID)
			}
			if parent.ParentID != 0 || sp.TraceID != parent.ID || sp.Parent != parent.Name {
				t.Fatalf("span %+v does not lie under the root %+v", sp, parent)
			}
		}

		sorted := slices.Clone(evs)
		slices.SortStableFunc(sorted, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
		hasRoot, started := map[int64]bool{}, map[int64]bool{}
		for _, e := range sorted {
			if e.T == EventRun {
				hasRoot[e.Run] = hasRoot[e.Run] || e.Action == "end" && started[e.Run]
				started[e.Run] = started[e.Run] || e.Action == "start"
			}
		}
		want := map[string]int{} // "<parent> node/<node>" per node event
		for _, e := range evs {
			if e.T == EventNode {
				parent := ""
				if hasRoot[e.Run] {
					parent = fmt.Sprintf("r%d", e.Run)
				}
				want[parent+" node/"+e.Node]++
			}
		}
		for _, sp := range spans {
			if len(sp.Name) > 5 && sp.Name[:5] == "node/" {
				want[sp.Parent+" "+sp.Name]--
			}
		}
		for k, n := range want {
			if n != 0 {
				t.Fatalf("node events vs node spans %q: %+d unmatched", k, n)
			}
		}
	})
}
