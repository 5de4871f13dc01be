package share

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/templates"
)

// suiteWorkflows wraps generated scenarios as suite members, each with a
// fresh set of bindings.
func suiteWorkflows(scs []*templates.Scenario) []Workflow {
	wfs := make([]Workflow, len(scs))
	for i, sc := range scs {
		wfs[i] = Workflow{
			Name:     fmt.Sprintf("wf%d", i),
			Graph:    sc.Graph,
			Bindings: sc.Bind(),
		}
	}
	return wfs
}

func soloRun(t *testing.T, sc *templates.Scenario) *engine.RunResult {
	t.Helper()
	res, err := engine.New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	return res
}

func TestRunSuiteMatchesSoloRuns(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 4242)
	if err != nil {
		t.Fatal(err)
	}
	solos := make([]*engine.RunResult, len(scs))
	for i, sc := range scs {
		solos[i] = soloRun(t, sc)
	}

	for _, tc := range []struct {
		name    string
		workers int
		budget  int64
		spill   bool
	}{
		{"serial-unbounded", 1, -1, false},
		{"parallel-unbounded", 4, -1, false},
		{"parallel-zero-budget", 4, 0, false},
		{"parallel-tiny-budget", 4, 512, false},
		{"parallel-zero-budget-spill", 4, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: tc.workers, CacheBytes: tc.budget}
			if tc.spill {
				opts.SpillDir = t.TempDir()
			}
			res, err := RunSuite(context.Background(), suiteWorkflows(scs), opts)
			if err != nil {
				t.Fatalf("RunSuite: %v", err)
			}
			for i, wr := range res.Workflows {
				if wr.Err != nil {
					t.Fatalf("workflow %s failed: %v", wr.Name, wr.Err)
				}
				if err := engine.SameRun(solos[i], wr.Result); err != nil {
					t.Fatalf("%s differs from its solo run: %v", wr.Name, err)
				}
			}
			if res.Stats.Stages == 0 {
				t.Fatal("shared-prefix suite planned no stages")
			}
		})
	}
}

func TestRunSuiteSavesWork(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	// What sharing saves is a function of the seed alone: the node counts
	// and the bytes served from the cache may not depend on the worker count.
	var first Stats
	for i, workers := range []int{1, 4} {
		res, err := RunSuite(context.Background(), suiteWorkflows(scs), Options{Workers: workers, CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.NodesExecuted >= st.NodesIndependent {
			t.Fatalf("workers=%d: no work saved: executed %d of %d independent nodes", workers, st.NodesExecuted, st.NodesIndependent)
		}
		if st.Cache.Hits == 0 || st.Cache.HitBytes <= 0 {
			t.Fatalf("workers=%d: no cache hits with an unbounded budget: %+v", workers, st.Cache)
		}
		if st.StageRuns != int64(st.Stages) {
			t.Fatalf("workers=%d: unbounded budget ran %d stage executions for %d stages", workers, st.StageRuns, st.Stages)
		}
		if i == 0 {
			first = st
			continue
		}
		if st.NodesIndependent != first.NodesIndependent || st.NodesExecuted != first.NodesExecuted ||
			st.Cache.HitBytes != first.Cache.HitBytes {
			t.Fatalf("savings depend on the worker count: workers=%d independent/executed/hit bytes %d/%d/%d, workers=1 %d/%d/%d",
				workers, st.NodesIndependent, st.NodesExecuted, st.Cache.HitBytes,
				first.NodesIndependent, first.NodesExecuted, first.Cache.HitBytes)
		}
	}
}

// TestRunSuiteSingleWorkflowHomologousTwins exercises sharing inside one
// workflow: homologous branch activities have equal closures and must still
// reproduce the solo run exactly when factored through the cache.
func TestRunSuiteSingleWorkflowHomologousTwins(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	solo := soloRun(t, scs[0])
	res, err := RunSuite(context.Background(), suiteWorkflows(scs), Options{Workers: 4, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflows[0].Err != nil {
		t.Fatal(res.Workflows[0].Err)
	}
	if err := engine.SameRun(solo, res.Workflows[0].Result); err != nil {
		t.Fatalf("differs from the solo run: %v", err)
	}
}

// poisonedSuite is two members sharing a prefix and an independent third,
// with one shared source poisoned in both sharing members: the bound
// recordset digests fine during planning but its schema no longer matches
// the graph's declaration, so the producer stage fails at scan time.
func poisonedSuite(t *testing.T) []Workflow {
	t.Helper()
	scs, err := generator.SharedSuite(generator.Small, 2, 777)
	if err != nil {
		t.Fatal(err)
	}
	indep, err := generator.Generate(generator.CategoryConfig(generator.Small, 31415))
	if err != nil {
		t.Fatal(err)
	}
	wfs := suiteWorkflows(append(scs, indep))
	srcs := scs[0].Graph.Sources()
	if len(srcs) == 0 {
		t.Fatal("scenario has no sources")
	}
	name := scs[0].Graph.Node(srcs[0]).RS.Name
	for i := 0; i < 2; i++ {
		bad := data.NewMemoryRecordset(name, data.Schema{"__bogus"})
		if err := bad.Load(data.Rows{{data.NewInt(1)}}); err != nil {
			t.Fatal(err)
		}
		wfs[i].Bindings[name] = bad
	}
	return wfs
}

func TestRunSuiteFailureIsolation(t *testing.T) {
	res, err := RunSuite(context.Background(), poisonedSuite(t), Options{Workers: 4, CacheBytes: -1})
	if err != nil {
		t.Fatalf("RunSuite must isolate execution failures, got: %v", err)
	}
	if res.Workflows[0].Err == nil || res.Workflows[1].Err == nil {
		t.Fatalf("poisoned workflows did not fail: %v / %v", res.Workflows[0].Err, res.Workflows[1].Err)
	}
	if res.Workflows[0].Err.Error() != res.Workflows[1].Err.Error() {
		t.Fatalf("sharing members failed differently:\n  %v\n  %v", res.Workflows[0].Err, res.Workflows[1].Err)
	}
	if res.Workflows[2].Err != nil {
		t.Fatalf("independent workflow poisoned by a sibling failure: %v", res.Workflows[2].Err)
	}
	if res.Workflows[2].Result == nil || len(res.Workflows[2].Result.Targets) == 0 {
		t.Fatal("independent workflow produced no targets")
	}
}

func TestSharedSuitePrefixesActuallyShare(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Medium, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	wfs := suiteWorkflows(scs)
	p, err := newPlan(context.Background(), wfs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stages) == 0 {
		t.Fatal("SharedSuite members share no closures")
	}
	// Post-union pipelines diverge by seed, so the workflows must not be
	// wholesale copies of each other: at least one node stays residual.
	for i, pw := range p.workflows {
		if pw.residual.Len() <= 1+len(pw.injected) {
			t.Fatalf("workflow %d reduced to nothing but injected sources", i)
		}
	}
}

// codeSuite is a two-member suite over in-memory sources whose shared prefix
// (trim over SRC) emits strings that look like numbers — " 007" becomes
// String("007") — and whose members then diverge: each unions its own EXTRA
// rows in and concatenates in its own argument order.
func codeSuite(t *testing.T) []Workflow {
	t.Helper()
	str := data.NewString
	var wfs []Workflow
	for i, args := range []string{"CODE,TAG", "TAG,CODE"} {
		g, err := dsl.Parse(`
recordset SRC source rows=3 schema=K,CODE,TAG
recordset EXTRA source rows=1 schema=K,CODE,TAG
activity t reformat fn=trim attr=CODE
activity u union
activity c convert fn=concat args=` + args + ` out=LABEL
recordset OUT target schema=K,LABEL
flow SRC -> t -> u
flow EXTRA -> u -> c -> OUT
`)
		if err != nil {
			t.Fatal(err)
		}
		src := data.NewMemoryRecordset("SRC", data.Schema{"K", "CODE", "TAG"}).MustLoad(data.Rows{
			{data.NewInt(1), str(" 007"), str("-x")},
			{data.NewInt(2), str(" 1e3 "), str("-y")},
			{data.NewInt(3), str("true "), str("-z")},
		})
		extra := data.NewMemoryRecordset("EXTRA", data.Schema{"K", "CODE", "TAG"}).MustLoad(data.Rows{
			{data.NewInt(int64(10 + i)), str("own"), str("-w")},
		})
		wfs = append(wfs, Workflow{
			Name:     fmt.Sprintf("codes%d", i),
			Graph:    g,
			Bindings: map[string]data.Recordset{"SRC": src, "EXTRA": extra, "OUT": data.NewMemoryRecordset("OUT", data.Schema{"K", "LABEL"})},
		})
	}
	return wfs
}

// TestSpillKeepsKindsEndToEnd: a member served its shared prefix from a
// spill file computes what it computes alone. Through a CSV spill the
// trimmed "007" came back Int(7) and the label read "7-x".
func TestSpillKeepsKindsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	res, err := RunSuite(context.Background(), codeSuite(t), Options{Workers: 2, CacheBytes: 0, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Stages != 1 || st.Cache.Spills == 0 || st.Cache.SpillLoads == 0 {
		t.Fatalf("stats %+v: want one shared stage, spilled and read back", st)
	}
	for i, wf := range codeSuite(t) {
		solo, err := engine.New(wf.Bindings).Run(context.Background(), wf.Graph)
		if err != nil {
			t.Fatal(err)
		}
		wr := res.Workflows[i]
		if wr.Err != nil {
			t.Fatalf("%s: %v", wr.Name, wr.Err)
		}
		if got, want := wr.Result.Targets["OUT"], solo.Targets["OUT"]; got.Digest() != want.Digest() {
			t.Errorf("%s: suite loaded %v, alone it loads %v", wr.Name, got, want)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("the suite left %d entries in its spill directory, first %s", len(left), left[0].Name())
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("the spill directory itself must stay: %v", err)
	}
}

// cancelOnScan is a source that cancels the run the nth time it is read.
type cancelOnScan struct {
	data.Recordset
	scans  atomic.Int32
	nth    int32
	cancel context.CancelFunc
}

func (c *cancelOnScan) Scan() (data.Rows, error) {
	if c.scans.Add(1) == c.nth {
		c.cancel()
	}
	return c.Recordset.Scan()
}

// TestCancelledSuiteLeavesNoSpillFiles: EXTRA is first read by its member's
// residual run (planning digests it, and scans nothing), which starts only
// after the shared prefix has been computed and — at a budget of zero —
// spilled. Cancelling there ends the suite with files written; none may stay.
func TestCancelledSuiteLeavesNoSpillFiles(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wfs := codeSuite(t)
	for _, wf := range wfs {
		wf.Bindings["EXTRA"] = &cancelOnScan{Recordset: wf.Bindings["EXTRA"], nth: 1, cancel: cancel}
	}
	res, err := RunSuite(ctx, wfs, Options{Workers: 1, CacheBytes: 0, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Err() == nil || res.Stats.Cache.Spills == 0 {
		t.Fatalf("cancelled: %v, spills %d; the run was to be cancelled after its first spill", ctx.Err(), res.Stats.Cache.Spills)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("the cancelled suite left %d entries in its spill directory, first %s", len(left), left[0].Name())
	}
}

// settled waits for the goroutine count to fall back to before.
func settled(before int) int {
	for wait := 0; runtime.NumGoroutine() > before && wait < 400; wait++ {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestSuiteLeavesNoGoroutine: every goroutine a suite starts — its stage
// and member runs, their partitions and source readers — has exited once
// RunSuite returns, or is about to: after a clean suite, after one whose
// members fail, and after one cancelled mid-run.
func TestSuiteLeavesNoGoroutine(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 4242)
	if err != nil {
		t.Fatal(err)
	}
	parallel := []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(4)}
	for _, c := range []struct {
		name  string
		suite func(cancel context.CancelFunc) []Workflow
		opts  Options
		check func(*Result) string
	}{
		{"clean", func(context.CancelFunc) []Workflow { return suiteWorkflows(scs) },
			Options{Workers: 4, CacheBytes: -1, Engine: parallel},
			func(res *Result) string {
				for _, wr := range res.Workflows {
					if wr.Err != nil {
						return wr.Err.Error()
					}
				}
				return ""
			}},
		{"failing member", func(context.CancelFunc) []Workflow { return poisonedSuite(t) },
			Options{Workers: 4, CacheBytes: -1, Engine: parallel},
			func(res *Result) string {
				if res.Workflows[0].Err == nil || res.Workflows[2].Err != nil {
					return "want the poisoned member failed and the independent one loaded"
				}
				return ""
			}},
		{"cancelled", func(cancel context.CancelFunc) []Workflow {
			wfs := codeSuite(t)
			for _, wf := range wfs {
				wf.Bindings["EXTRA"] = &cancelOnScan{Recordset: wf.Bindings["EXTRA"], nth: 1, cancel: cancel}
			}
			return wfs
		}, Options{Workers: 2, CacheBytes: 0, SpillDir: t.TempDir(), Engine: parallel},
			func(res *Result) string {
				for _, wr := range res.Workflows {
					if errors.Is(wr.Err, context.Canceled) {
						return ""
					}
				}
				return "no member was cancelled"
			}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		wfs := c.suite(cancel)
		before := runtime.NumGoroutine()
		res, err := RunSuite(ctx, wfs, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if msg := c.check(res); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
		if after := settled(before); after > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines before the suite, %d after it returned:\n%s", c.name, before, after, buf[:runtime.Stack(buf, true)])
		}
		cancel()
	}
}
