package share

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
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
	// wholesale copies of each other: each member's run executes more than
	// its target.
	for i, pw := range p.workflows {
		ran := 0
		for id := range pw.need {
			if !pw.shared[id] {
				ran++
			}
		}
		if ran <= 1 {
			t.Fatalf("workflow %d reduced to nothing but restored stages", i)
		}
	}
}

// TestEveryStageIsReadTwice: a stage is an intermediate the suite reads in
// more than one place. Across the producer and member runs of suite-spill's
// suite, every planned stage is restored at two nodes or more; an activity
// that only feeds the next one in every member is computed inside that
// one's stage, never admitted to the cache on its own.
func TestEveryStageIsReadTwice(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Medium, 4, 20050405)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(context.Background(), suiteWorkflows(scs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stages) == 0 {
		t.Fatal("SharedSuite members share no stage")
	}
	restored := make(map[int]int)
	count := func(pw *planWorkflow, need map[workflow.NodeID]bool, keep workflow.NodeID) {
		for id := range need {
			if !executes(pw, need, keep)(id) {
				restored[pw.classes[id]]++
			}
		}
	}
	for _, st := range p.stages {
		count(st.pw, st.need, st.id)
	}
	for _, pw := range p.workflows {
		count(pw, pw.need, 0)
	}
	unread := 0
	for c := range p.stages {
		if restored[c] < 2 {
			unread++
		}
	}
	if unread > 0 {
		t.Errorf("%d of %d stages are restored at fewer than two nodes", unread, len(p.stages))
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
// trimmed "007" came back Int(7) and the label read "7-x". At one worker
// the members start once the file is written, so they read it back.
func TestSpillKeepsKindsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	res, err := RunSuite(context.Background(), codeSuite(t), Options{Workers: 1, CacheBytes: 0, SpillDir: dir})
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
// run (planning digests it, and scans nothing), which starts only
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

// TestUnmakeableSpillDirRunsNothing: a bounded budget whose spill
// directory cannot be made is refused before anything runs: RunSuite
// returns an error naming it, no source is scanned and no target loaded.
func TestUnmakeableSpillDirRunsNothing(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	wfs := codeSuite(t)
	var scanned []*cancelOnScan
	for _, wf := range wfs {
		for _, name := range []string{"SRC", "EXTRA"} {
			c := &cancelOnScan{Recordset: wf.Bindings[name], cancel: func() {}}
			wf.Bindings[name] = c
			scanned = append(scanned, c)
		}
	}
	res, err := RunSuite(context.Background(), wfs, Options{Workers: 1, CacheBytes: 0, SpillDir: filepath.Join(file, "spill")})
	if err == nil || !strings.Contains(err.Error(), file) || res != nil {
		t.Fatalf("RunSuite = %v, %v; want no result and an error naming %s", res, err, file)
	}
	for _, c := range scanned {
		if n := c.scans.Load(); n != 0 {
			t.Errorf("%s scanned %d times", c.Name(), n)
		}
	}
	for _, wf := range wfs {
		if rows, err := wf.Bindings["OUT"].Scan(); err != nil || len(rows) != 0 {
			t.Errorf("%s: target holds %d rows, %v; want none loaded", wf.Name, len(rows), err)
		}
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
	parallel := []engine.Option{engine.WithPartitions(4)}
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

// shapeSource is the rows every member of a shape suite reads as SRC: a
// NULL V every seventh row, and more rows than one batch.
func shapeSource() data.Rows {
	rows := make(data.Rows, 3000)
	for i := range rows {
		v := data.NewInt(int64(i % 50))
		if i%7 == 3 {
			v = data.Null
		}
		rows[i] = data.Record{data.NewInt(int64(i)), v, data.NewString(fmt.Sprintf("c%d", i%11))}
	}
	return rows
}

// shapeSuite parses each source as a member reading its own copy of SRC.
func shapeSuite(t *testing.T, srcs ...string) []Workflow {
	t.Helper()
	wfs := make([]Workflow, len(srcs))
	for i, src := range srcs {
		g, err := dsl.Parse("recordset SRC source rows=3000 schema=K,V,CODE\n" + src)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		rs := data.NewMemoryRecordset("SRC", data.Schema{"K", "V", "CODE"}).MustLoad(shapeSource())
		wfs[i] = Workflow{Name: fmt.Sprintf("m%d", i), Graph: g, Bindings: map[string]data.Recordset{"SRC": rs}}
	}
	return wfs
}

// TestRunSuiteShapesMatchSoloRuns holds the shapes a suite run cuts a
// member's graph into to the member's solo run, at every worker count,
// partition count and budget, and counts the nodes the suite executes (a
// restored one is not executed): a shared row-local chain whose members
// diverge after it (one stage, at its end), homologous twins fed by one
// unshared activity (skipped in the member's run, its rows counted by the
// twins' producer), members left with nothing to run but a restored
// activity and their target, a shared activity read by different
// consumers, and one fanning out inside each member.
func TestRunSuiteShapesMatchSoloRuns(t *testing.T) {
	shapes := []struct {
		name     string
		srcs     []string
		stages   int
		executed int64
		check    func(p *plan) string
	}{
		{"shared mid-chain", []string{`
activity nn notnull attrs=V
activity s convert fn=scale10 args=V out=V10
activity f filter pred="V10 >= 100"
activity up reformat fn=upper attr=CODE
recordset OUT target schema=K,CODE,V10
flow SRC -> nn -> s -> f -> up -> OUT`, `
activity nn notnull attrs=V
activity s convert fn=scale10 args=V out=V10
activity f filter pred="V10 >= 100"
activity pj project attrs=CODE
recordset OUT target schema=K,V10
flow SRC -> nn -> s -> f -> pj -> OUT`}, 1, 8, func(p *plan) string {
			for _, pw := range p.workflows {
				if f, up := workflow.NodeID(4), workflow.NodeID(5); !pw.shared[f] || pw.shared[up] {
					return "want f shared and its row-local consumer not"
				}
			}
			return ""
		}},
		{"twins over an unshared activity", []string{`
activity a filter pred="K >= 5"
activity t1 convert fn=scale10 args=V out=V10
activity t2 convert fn=scale10 args=V out=V10
activity u union
activity nn notnull attrs=V10
recordset OUT target schema=K,CODE,V10
flow SRC -> a -> t1 -> u
flow a -> t2 -> u -> nn -> OUT`}, 1, 6, func(p *plan) string {
			if pw := p.workflows[0]; pw.shared[2] || pw.need[2] {
				return "want the twins' provider unshared and skipped by the member's run"
			}
			return ""
		}},
		{"nothing left but restored", []string{`
activity nn notnull attrs=V
activity f filter pred="V >= 10"
recordset OUTA target schema=K,V,CODE
flow SRC -> nn -> f -> OUTA`, `
activity nn notnull attrs=V
activity f filter pred="V >= 10"
recordset OUTB target schema=K,V,CODE
flow SRC -> nn -> f -> OUTB`}, 1, 5, func(p *plan) string {
			for _, pw := range p.workflows {
				for id := range pw.need {
					if n := pw.wf.Graph.Node(id); !pw.shared[id] && n.Kind == workflow.KindActivity {
						return fmt.Sprintf("%s runs %s", pw.wf.Name, n.Label())
					}
				}
			}
			return ""
		}},
		{"shared activity, different consumers", []string{`
activity nn notnull attrs=V
activity f filter pred="V >= 10"
recordset OUT target schema=K,V,CODE
flow SRC -> nn -> f -> OUT`, `
activity nn notnull attrs=V
activity f filter pred="V >= 20"
recordset OUT target schema=K,V,CODE
flow SRC -> nn -> f -> OUT`}, 1, 6, func(p *plan) string {
			for _, pw := range p.workflows {
				if nn, f := workflow.NodeID(2), workflow.NodeID(3); !pw.shared[nn] || pw.shared[f] {
					return "want nn shared and its consumer not"
				}
			}
			return ""
		}},
		{"fan-out inside each member", []string{`
activity nn notnull attrs=V
activity f filter pred="V >= 10"
activity s convert fn=scale10 args=V out=V10
recordset OUTA target schema=K,V,CODE
recordset OUTB target schema=K,CODE,V10
flow SRC -> nn -> f -> OUTA
flow nn -> s -> OUTB`, `
activity nn notnull attrs=V
activity f filter pred="V >= 10"
activity s convert fn=scale10 args=V out=V10
activity up reformat fn=upper attr=CODE
recordset OUTA target schema=K,V,CODE
recordset OUTB target schema=K,CODE,V10
flow SRC -> nn -> f -> up -> OUTA
flow nn -> s -> OUTB`}, 3, 9, func(p *plan) string {
			for _, pw := range p.workflows {
				if nn := workflow.NodeID(2); !pw.shared[nn] {
					return "want nn, read by two activities in each member, shared"
				}
			}
			return ""
		}},
	}
	for _, sh := range shapes {
		p, err := newPlan(context.Background(), shapeSuite(t, sh.srcs...), 1)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if msg := sh.check(p); msg != "" {
			t.Fatalf("%s: %s", sh.name, msg)
		}
		var solos []*engine.RunResult
		for _, wf := range shapeSuite(t, sh.srcs...) {
			solos = append(solos, soloRunOf(t, wf))
		}
		for _, workers := range []int{1, 4} {
			for _, parts := range []int{1, 4} {
				for _, budget := range []int64{-1, 0} {
					opts := Options{Workers: workers, CacheBytes: budget,
						Engine: []engine.Option{engine.WithPartitions(parts)}}
					if budget == 0 {
						opts.SpillDir = t.TempDir()
					}
					res, err := RunSuite(context.Background(), shapeSuite(t, sh.srcs...), opts)
					if err != nil {
						t.Fatal(err)
					}
					cell := fmt.Sprintf("%s W=%d P=%d budget=%d", sh.name, workers, parts, budget)
					if st := res.Stats; st.Stages != sh.stages || st.NodesExecuted != sh.executed {
						t.Errorf("%s: %d stages and %d nodes executed of %d, want %d and %d",
							cell, st.Stages, st.NodesExecuted, st.NodesIndependent, sh.stages, sh.executed)
					}
					for i, wr := range res.Workflows {
						if wr.Err != nil {
							t.Fatalf("%s: %s: %v", cell, wr.Name, wr.Err)
						}
						if err := engine.SameRun(solos[i], wr.Result); err != nil {
							t.Errorf("%s: %s differs from its solo run: %v", cell, wr.Name, err)
						}
					}
				}
			}
		}
	}
}

func soloRunOf(t *testing.T, wf Workflow) *engine.RunResult {
	t.Helper()
	res, err := engine.New(wf.Bindings).Run(context.Background(), wf.Graph)
	if err != nil {
		t.Fatalf("solo run of %s: %v", wf.Name, err)
	}
	return res
}

// TestSuiteTellsIntFromFloatConstants: σ((X+2)>X) and σ((X+2.0)>X) differ
// at X = 2⁶⁰ — int addition is exact, the float sum rounds back to X — so
// a suite must not serve one member's filter from the other's, in either
// member order: each member loads what it loads alone.
func TestSuiteTellsIntFromFloatConstants(t *testing.T) {
	members := map[string]struct {
		pred string
		rows int
	}{"int": {"(X+2)>X", 2}, "float": {"(X+2.0)>X", 1}}
	for _, order := range [][]string{{"int", "float"}, {"float", "int"}} {
		var wfs []Workflow
		for _, name := range order {
			g, err := dsl.Parse(fmt.Sprintf("recordset S source rows=2 schema=X\nactivity f filter pred=%q\nrecordset T%s target schema=X\nflow S -> f -> T%s\n",
				members[name].pred, name, name))
			if err != nil {
				t.Fatal(err)
			}
			src := data.NewMemoryRecordset("S", data.Schema{"X"}).MustLoad(data.Rows{{data.NewInt(5)}, {data.NewInt(1 << 60)}})
			wfs = append(wfs, Workflow{Name: name, Graph: g, Bindings: map[string]data.Recordset{"S": src}})
		}
		res, err := RunSuite(context.Background(), wfs, Options{Workers: 1, CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, wr := range res.Workflows {
			if wr.Err != nil {
				t.Fatalf("%v: %s: %v", order, wr.Name, wr.Err)
			}
			if got, want := len(wr.Result.Targets["T"+wr.Name]), members[wr.Name].rows; got != want {
				t.Errorf("%v: %s loads %d rows, want %d as alone (%d shared stages)", order, wr.Name, got, want, res.Stats.Stages)
			}
		}
	}
}

// TestSuiteSharesAnEmptyStage: a header-only record file scans as nil rows,
// and DISTINCT and a PK check pass nil through, so a shared stage can hold
// nil rows. It weighs 0 bytes and stays resident at every budget, with no
// spill file: its readers are served the nil rows, and each member loads
// what it loads alone.
func TestSuiteSharesAnEmptyStage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "SRC.csv")
	if err := data.WriteCSVFile(path, data.Schema{"K", "V"}, nil); err != nil {
		t.Fatal(err)
	}
	suite := func() []Workflow {
		var wfs []Workflow
		for i, rest := range []string{"activity f filter pred=\"V >= 1\"", "activity f filter pred=\"V >= 2\""} {
			g, err := dsl.Parse(`
recordset SRC source rows=0 schema=K,V
activity d distinct
activity pk pkcheck attrs=K
` + rest + `
recordset OUT target schema=K,V
flow SRC -> d -> pk -> f -> OUT
`)
			if err != nil {
				t.Fatal(err)
			}
			src, err := data.NewFileRecordset("SRC", data.Schema{"K", "V"}, path)
			if err != nil {
				t.Fatal(err)
			}
			wfs = append(wfs, Workflow{Name: fmt.Sprintf("m%d", i), Graph: g, Bindings: map[string]data.Recordset{"SRC": src}})
		}
		return wfs
	}
	var solos []*engine.RunResult
	for _, wf := range suite() {
		solos = append(solos, soloRunOf(t, wf))
	}
	for _, budget := range []int64{-1, 0} {
		t.Setenv("TMPDIR", t.TempDir())
		opts := Options{Workers: 1, CacheBytes: budget, Engine: []engine.Option{engine.WithPartitions(1)}}
		res, err := RunSuite(context.Background(), suite(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.Stages == 0 || st.StageRuns != int64(st.Stages) || st.Cache.Spills != 0 {
			t.Errorf("budget %d: stats %+v: want a shared stage, run once and never spilled", budget, st)
		}
		for i, wr := range res.Workflows {
			if wr.Err != nil {
				t.Fatalf("budget %d: %s: %v", budget, wr.Name, wr.Err)
			}
			if err := engine.SameRun(solos[i], wr.Result); err != nil {
				t.Errorf("budget %d: %s differs from its solo run: %v", budget, wr.Name, err)
			}
		}
		if left, _ := os.ReadDir(os.Getenv("TMPDIR")); len(left) != 0 {
			t.Errorf("budget %d: the suite left %d entries in TMPDIR, first %s", budget, len(left), left[0].Name())
		}
	}
}
