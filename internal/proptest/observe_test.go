package proptest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"etlopt/internal/core"
	"etlopt/internal/engine"
	"etlopt/internal/fault"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/share"
	"etlopt/internal/templates"
)

// observationsGolden pins what a fixed set of instrumented runs records.
const observationsGolden = "testdata/observations.golden"

// TestObservationsUnchanged pins what the engine, the search and the suite
// cache record, with a registry and a journal attached: every series name,
// every counter value, every histogram count, every gauge that is not a
// time, the spans obs.Spans derives from the journal, counted by name, and
// the journal's multiset of events with Seq, Off, Sec and Run zeroed.
// Four sections, each on its own registry and journal:
//
//   - fig1, small: Fig1Scenario and a generated small workflow at P ∈ {1, 4},
//     each under a transient fault plan with retries, then crashed by a
//     permanent plan under a checkpoint runner and resumed;
//   - search: one HS and one ES search at Workers 1;
//   - suite: one share.RunSuite of a generated three-member suite at
//     Workers 4, unbounded cache.
//
// Every run is deterministic, so a refactor of how facts are recorded must
// leave the file unchanged.
func TestObservationsUnchanged(t *testing.T) {
	small, err := generator.Generate(generator.CategoryConfig(generator.Small, 11))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	got = append(got, observeSection(t, "fig1", true, func(reg *obs.Registry, j *obs.Journal) {
		observeEngine(t, templates.Fig1Scenario(40, 60), 7, reg, j)
	})...)
	got = append(got, observeSection(t, "small", true, func(reg *obs.Registry, j *obs.Journal) {
		observeEngine(t, small, 8, reg, j)
	})...)
	got = append(got, observeSection(t, "search", true, func(reg *obs.Registry, j *obs.Journal) {
		ctx := context.Background()
		opts := core.Options{IncrementalCost: true, Workers: 1, Metrics: reg, Journal: j}
		opts.MaxStates = 1500
		if _, err := core.Heuristic(ctx, small.Graph, opts); err != nil {
			t.Fatal(err)
		}
		opts.MaxStates = 400
		if _, err := core.Exhaustive(ctx, templates.Fig1Workflow(), opts); err != nil {
			t.Fatal(err)
		}
	})...)
	// Members sharing a node key set its gauges concurrently, last writer
	// wins: the suite pins their names, not their values.
	got = append(got, observeSection(t, "suite", false, func(reg *obs.Registry, j *obs.Journal) {
		scs, err := generator.SharedSuite(generator.Small, 3, 73)
		if err != nil {
			t.Fatal(err)
		}
		wfs := make([]share.Workflow, len(scs))
		for i, sc := range scs {
			wfs[i] = share.Workflow{Name: fmt.Sprintf("wf-%d", i+1), Graph: sc.Graph, Bindings: sc.Bind()}
		}
		res, err := share.RunSuite(context.Background(), wfs, share.Options{
			Workers: 4, CacheBytes: -1,
			Engine:  []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(2), engine.WithMetrics(reg), engine.WithJournal(j)},
			Journal: j, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, wr := range res.Workflows {
			if wr.Err != nil {
				t.Fatalf("%s: %v", wr.Name, wr.Err)
			}
		}
	})...)

	raw, err := os.ReadFile(filepath.FromSlash(observationsGolden))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if missing, extra := lineDiff(want, got); len(missing)+len(extra) > 0 {
		t.Errorf("observations differ from %s: %d line(s) missing, %d unexpected\nmissing:\n  %s\nunexpected:\n  %s",
			observationsGolden, len(missing), len(extra), strings.Join(head(missing, 40), "\n  "), strings.Join(head(extra, 40), "\n  "))
	}
}

// TestDerivedSeriesExactUnderDrops runs an HS search, a faulted engine run
// and a suite with a journal whose writer never drains, so that events
// beyond its buffer are dropped, and requires every counter folded from
// events to equal the same runs' with no journal attached: the registry
// receives each event before the journal's lossy channel does.
func TestDerivedSeriesExactUnderDrops(t *testing.T) {
	medium, err := generator.Generate(generator.CategoryConfig(generator.Medium, 20050405))
	if err != nil {
		t.Fatal(err)
	}
	scs, err := generator.SharedSuite(generator.Small, 3, 73)
	if err != nil {
		t.Fatal(err)
	}
	observe := func(j *obs.Journal) map[string]int64 {
		ctx := context.Background()
		reg := obs.NewRegistry()
		opts := core.Options{IncrementalCost: true, Workers: 1, MaxStates: 10_000, Metrics: reg, Journal: j}
		if _, err := core.Heuristic(ctx, medium.Graph, opts); err != nil {
			t.Fatal(err)
		}
		eopts := []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(4), engine.WithMetrics(reg), engine.WithJournal(j)}
		faulted := append(eopts[:len(eopts):len(eopts)], engine.WithFaultPlan(fault.NewPlan(7, 0.3)), engine.WithRetry(fault.Policy{MaxAttempts: 8, Seed: 7}))
		if _, err := engine.New(medium.Bind(), faulted...).Run(ctx, medium.Graph); err != nil {
			t.Fatal(err)
		}
		wfs := make([]share.Workflow, len(scs))
		for i, sc := range scs {
			wfs[i] = share.Workflow{Name: fmt.Sprintf("wf-%d", i+1), Graph: sc.Graph, Bindings: sc.Bind()}
		}
		if _, err := share.RunSuite(ctx, wfs, share.Options{Workers: 4, CacheBytes: -1, Engine: eopts, Journal: j, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		folded := map[string]int64{}
		for _, c := range reg.Snapshot().Counters {
			for _, prefix := range []string{"search_transition_", "search_states_deduped", "engine_", "shared_cache_"} {
				if strings.HasPrefix(c.Series, prefix) {
					folded[c.Series] = c.Value
				}
			}
		}
		return folded
	}
	want := observe(nil)
	pr, pw := io.Pipe()
	j := obs.NewJournal(pw, nil)
	got := observe(j)
	pr.CloseWithError(io.ErrClosedPipe) // lets the stalled writer fail and the journal close
	j.Close()
	if j.Dropped() == 0 {
		t.Fatal("the journal dropped nothing: the test would prove nothing")
	}
	for series, v := range want {
		if got[series] != v {
			t.Errorf("%s = %d with %d events dropped, %d with no journal", series, got[series], j.Dropped(), v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d folded series with a journal, %d without", len(got), len(want))
	}
}

// observeEngine runs sc at P=1 and P=4, each under a transient fault plan
// with retries and then as a checkpointed crash followed by a resume.
func observeEngine(t *testing.T, sc *templates.Scenario, seed int64, reg *obs.Registry, j *obs.Journal) {
	t.Helper()
	ctx := context.Background()
	for _, p := range []int{1, 4} {
		opts := []engine.Option{engine.WithMode(engine.Materialized), engine.WithMetrics(reg), engine.WithJournal(j)}
		if p > 1 {
			opts = append(opts, engine.WithMode(engine.Parallel), engine.WithPartitions(p))
		}
		opts = opts[:len(opts):len(opts)] // each run below appends its own options
		plan := fault.NewPlan(seed, 0.3)
		faulted := append(opts, engine.WithFaultPlan(plan), engine.WithRetry(fault.Policy{MaxAttempts: 8, Seed: seed}))
		if _, err := engine.New(sc.Bind(), faulted...).Run(ctx, sc.Graph); err != nil {
			t.Fatalf("P=%d: faulted run: %v", p, err)
		}
		if plan.Injected() == 0 {
			t.Fatalf("P=%d: the fault plan never fired", p)
		}
		dir := filepath.Join(t.TempDir(), "stage")
		crash := fault.NewPlan(seed, 0.15, fault.WithKind(fault.Permanent), fault.WithSites(fault.SiteStage, fault.SiteNodeStart))
		cr, err := engine.NewCheckpointRunner(engine.New(sc.Bind(), append(opts, engine.WithFaultPlan(crash))...), dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cr.Run(ctx, sc.Graph); err == nil {
			t.Fatalf("P=%d: the crash plan did not crash the run", p)
		}
		if staged, _ := cr.Staged(); len(staged) == 0 {
			t.Fatalf("P=%d: the crash left nothing staged to resume from", p)
		}
		cr, err = engine.NewCheckpointRunner(engine.New(sc.Bind(), opts...), dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cr.Run(ctx, sc.Graph); err != nil {
			t.Fatalf("P=%d: resumed run: %v", p, err)
		}
	}
}

// observeSection runs fn with a fresh registry and journal and renders what
// they recorded as sorted lines prefixed with the section's name; gauge
// values only when gaugeValues is set.
func observeSection(t *testing.T, section string, gaugeValues bool, fn func(*obs.Registry, *obs.Journal)) []string {
	t.Helper()
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, reg)
	fn(reg, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if d := j.Dropped(); d != 0 {
		t.Fatalf("%s: journal dropped %d events", section, d)
	}
	evs, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", c.Series, c.Value))
	}
	for _, g := range snap.Gauges {
		switch {
		case strings.Contains(g.Family, "_seconds"):
		case gaugeValues:
			lines = append(lines, fmt.Sprintf("gauge %s %s", g.Series, strconv.FormatFloat(g.Value, 'g', -1, 64)))
		default:
			lines = append(lines, "gauge "+g.Series)
		}
	}
	for _, h := range snap.Histograms {
		lines = append(lines, fmt.Sprintf("histogram %s count %d", h.Series, h.Count))
	}
	spans := map[string]int{}
	for _, sp := range obs.Spans(evs) {
		spans[sp.Name]++
	}
	for name, n := range spans {
		lines = append(lines, fmt.Sprintf("span %s x%d", name, n))
	}
	events := map[string]int{}
	for _, e := range evs {
		e.Seq, e.Off, e.Sec, e.Run = 0, 0, 0, 0
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		events[string(b)]++
	}
	for e, n := range events {
		lines = append(lines, fmt.Sprintf("event %s x%d", e, n))
	}
	sort.Strings(lines)
	for i := range lines {
		lines[i] = section + " " + lines[i]
	}
	return lines
}

// lineDiff returns the lines of want absent from got and those of got
// absent from want, as multisets.
func lineDiff(want, got []string) (missing, extra []string) {
	n := map[string]int{}
	for _, l := range want {
		n[l]++
	}
	for _, l := range got {
		n[l]--
	}
	for _, l := range want {
		if n[l] > 0 {
			missing = append(missing, l)
			n[l]--
		}
	}
	for l, c := range n {
		for ; c < 0; c++ {
			extra = append(extra, l)
		}
	}
	sort.Strings(extra)
	return missing, extra
}

func head(s []string, n int) []string { return s[:min(n, len(s))] }
