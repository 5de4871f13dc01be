package engine

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
)

// A rate-1 transient plan makes every injection point fire exactly once
// (MaxPerKey 1), so each node fails a bounded number of attempts before
// its occurrences are exhausted — the worst case the retry budget must
// absorb. The recovered run must be bit-identical to the clean one.
func TestEngineTransientFaultsRecover(t *testing.T) {
	sc := templates.Fig1Scenario(80, 240)
	clean, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		plan := fault.NewPlan(1, 1.0)
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		res, err := New(sc.Bind(),
			WithPartitions(p), WithJournal(j),
			WithFaultPlan(plan),
			WithRetry(fault.Policy{MaxAttempts: 8, Seed: 1}),
		).Run(context.Background(), sc.Graph)
		if err != nil {
			t.Fatalf("P=%d: run failed despite retries (%d faults fired): %v", p, plan.Injected(), err)
		}
		if cerr := j.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if plan.Injected() == 0 {
			t.Fatalf("P=%d: rate-1 plan fired no faults", p)
		}
		if err := res.Targets["DW.PARTS"].SameMultiset(clean.Targets["DW.PARTS"]); err != nil {
			t.Errorf("P=%d: recovered run differs from clean run: %v", p, err)
		}
		for id, want := range clean.NodeRows {
			if got := res.NodeRows[id]; got != want {
				t.Errorf("P=%d: node %d emitted %d rows, clean run %d", p, id, got, want)
			}
		}
		evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		faults, retries := 0, 0
		for _, e := range evs {
			switch e.T {
			case obs.EventFault:
				faults++
			case obs.EventRetry:
				retries++
			}
		}
		if faults == 0 || retries == 0 {
			t.Errorf("P=%d: journal holds %d fault and %d retry events; want both > 0", p, faults, retries)
		}
	}
}

// A permanent fault must fail the run immediately with a typed error
// naming node, partition and injection site, budget notwithstanding.
func TestEnginePermanentFaultTyped(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	for _, p := range []int{1, 4} {
		before := runtime.NumGoroutine()
		_, err := New(sc.Bind(),
			WithPartitions(p),
			WithFaultPlan(fault.NewPlan(7, 1.0, fault.WithKind(fault.Permanent))),
			WithRetry(fault.Policy{MaxAttempts: 8, Seed: 7}),
		).Run(context.Background(), sc.Graph)
		if err == nil {
			t.Fatalf("P=%d: permanent rate-1 plan did not fail the run", p)
		}
		var inj *fault.Injected
		if !errors.As(err, &inj) {
			t.Fatalf("P=%d: error is not a typed *fault.Injected: %v", p, err)
		}
		if inj.Site == "" || inj.Node < 0 || inj.Part < 0 || inj.Kind != fault.Permanent {
			t.Fatalf("P=%d: attribution incomplete: %+v", p, inj)
		}
		if after := settled(before); after > before {
			t.Errorf("P=%d: %d goroutines before the run, %d after it faulted", p, before, after)
		}
	}
}

// Without a retry policy even transient faults surface: injection and
// recovery are independently armed.
func TestEngineTransientFaultWithoutRetrySurfaces(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	_, err := New(sc.Bind(),
		WithFaultPlan(fault.NewPlan(3, 1.0)),
	).Run(context.Background(), sc.Graph)
	var inj *fault.Injected
	if !errors.As(err, &inj) || !inj.Transient() {
		t.Fatalf("want a surfaced transient *fault.Injected, got %v", err)
	}
}

// The checkpoint runner shares the engine's retry layer: a transiently
// faulted checkpointed run converges, clears its staging area, and
// matches a plain run.
func TestCheckpointRunnerRetriesFaults(t *testing.T) {
	sc := templates.Fig1Scenario(60, 180)
	plan := fault.NewPlan(5, 1.0)
	cr := NewCheckpointRunner(
		New(sc.Bind(), WithFaultPlan(plan), WithRetry(fault.Policy{MaxAttempts: 8, Seed: 5})),
		filepath.Join(t.TempDir(), "stage"))
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatalf("checkpointed run failed despite retries (%d faults fired): %v", plan.Injected(), err)
	}
	if plan.Injected() == 0 {
		t.Fatal("rate-1 plan fired no faults")
	}
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameRun(plain, res); err != nil {
		t.Errorf("recovered checkpointed run differs from plain run: %v", err)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) != 0 {
		t.Errorf("staging not cleared after recovered success: %v", staged)
	}
}

// An armed-but-silent plan (rate 0) and a plan-free engine must agree
// exactly: the injection points are invisible until they fire.
func TestEngineZeroRatePlanInvisible(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(sc.Bind(),
		WithPartitions(4),
		WithFaultPlan(fault.NewPlan(11, 0)),
		WithRetry(fault.Policy{MaxAttempts: 4, Seed: 11}),
	).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Targets["DW.PARTS"].SameMultiset(plain.Targets["DW.PARTS"]); err != nil {
		t.Errorf("zero-rate plan changed the run's output: %v", err)
	}
}

// loadCounter counts the Loads a target receives.
type loadCounter struct {
	data.Recordset
	loads *int
}

func (c loadCounter) Load(rows data.Rows) error {
	*c.loads++
	return c.Recordset.Load(rows)
}

// A fused stage is one retry unit with one set of fault sites: under a
// rate-1 transient plan its node-start and emit sites fire under its last
// member's ID only, the whole stage is retried, the target is loaded
// once, and the journal still shows exactly one node event per member
// with the clean run's rows.
func TestFusedStageRetriedAsAWhole(t *testing.T) {
	g, ids := chainGraph(t, measureSchema,
		templates.NotNull(0.9, "V1"), templates.Convert("scale10", "W1", "V1"), templates.Threshold("W1", 300, 0.5))
	clean, err := New(bindMeasures(5000)()).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	last := ids[len(ids)-1]
	tgt := g.Consumers(last)[0]
	for _, p := range []int{1, 4} {
		bindings, loads := bindMeasures(5000)(), 0
		bindings["TGT"] = loadCounter{data.NewMemoryRecordset("TGT", g.Node(tgt).RS.Schema), &loads}
		plan := fault.NewPlan(9, 1.0, fault.WithSites(fault.SiteNodeStart, fault.SiteEmit))
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		res, err := New(bindings, WithPartitions(p), WithJournal(j),
			WithFaultPlan(plan), WithRetry(fault.Policy{MaxAttempts: 8, Seed: 9})).Run(context.Background(), g)
		if err != nil {
			t.Fatalf("P=%d: run failed despite retries (%d faults fired): %v", p, plan.Injected(), err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := SameRun(clean, res); err != nil {
			t.Errorf("P=%d: recovered run differs from the clean run: %v", p, err)
		}
		if loads != 1 {
			t.Errorf("P=%d: target loaded %d times, want once", p, loads)
		}
		evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		stageKey := nodeKey(last, g.Node(last))
		faults, retries, nodeEvents := map[string]int{}, map[string]int{}, map[string][]int64{}
		for _, ev := range evs {
			switch ev.T {
			case obs.EventFault:
				faults[ev.Node]++
			case obs.EventRetry:
				retries[ev.Node]++
			case obs.EventNode:
				nodeEvents[ev.Node] = append(nodeEvents[ev.Node], ev.Rows)
			}
		}
		// Node start once, then one emit occurrence per partition: all p
		// are consumed by the first attempt that gets that far.
		if faults[stageKey] != 1+p || retries[stageKey] != 2 {
			t.Errorf("P=%d: stage %s journaled %d faults and %d retries, want %d and 2", p, stageKey, faults[stageKey], retries[stageKey], 1+p)
		}
		for _, id := range ids {
			key := nodeKey(id, g.Node(id))
			if id != last && faults[key]+retries[key] != 0 {
				t.Errorf("P=%d: interior member %s has fault sites of its own: %d faults, %d retries", p, key, faults[key], retries[key])
			}
			if got := nodeEvents[key]; len(got) != 1 || got[0] != int64(clean.NodeRows[id]) {
				t.Errorf("P=%d: member %s: node events %v, want one carrying %d", p, key, got, clean.NodeRows[id])
			}
		}
	}
}
