package main

// adapter.go is the only file of the benchmark that imports the program
// under test. Untraced passes go through the pkg/etl facade alone; the
// traced run and the per-layer measurements call the layer functions
// named in README.md directly. Execution modes other than the facade's
// defaults and checkpointing are reached through the etlrun binary
// (modes.go), never from Go, so this file keeps compiling when they go.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/share"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
	"etlopt/pkg/etl"
)

// structureSeed fixes the generated workflows' shape. The --seed argument
// drives the data only: a pass over a 66-activity workflow and one over a
// 58-activity workflow are different workloads, not two samples of one.
const structureSeed = 20050405

// generatorSpecs turns generator scenarios into workload specs: the
// serialized workflow, the feeds to generate, and the scenario's own
// lookup and dimension rows.
func generatorSpecs(scenarios []*templates.Scenario) ([]wfSpec, error) {
	specs := make([]wfSpec, 0, len(scenarios))
	for _, sc := range scenarios {
		text, err := etl.Serialize(sc.Graph)
		if err != nil {
			return nil, err
		}
		spec := wfSpec{Text: text, Feeds: map[string][]string{}, Fixed: map[string]table{}}
		for name, rows := range sc.Lookups {
			spec.Fixed[name] = tableOf(sc.Schemas[name], rows)
		}
		for name, rows := range sc.Sources {
			// Branch feeds carry the production key; the dimension does not.
			if sc.Schemas[name].Has("KEY") {
				spec.Feeds[name] = sc.Schemas[name]
			} else {
				spec.Fixed[name] = tableOf(sc.Schemas[name], rows)
			}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func tableOf(schema etl.Schema, rows etl.Rows) table {
	t := table{Schema: schema}
	for _, r := range rows {
		fields := make([]string, len(r))
		for i, v := range r {
			fields[i] = v.String()
			if v.IsNull() {
				fields[i] = "NULL"
			}
		}
		t.Rows = append(t.Rows, fields)
	}
	return t
}

func wideSpecs() ([]wfSpec, error) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Large, structureSeed))
	if err != nil {
		return nil, err
	}
	return generatorSpecs([]*templates.Scenario{sc})
}

func deepSpecs() ([]wfSpec, error) {
	medium, err := generator.Suite(generator.Medium, 2, structureSeed)
	if err != nil {
		return nil, err
	}
	large, err := generator.Suite(generator.Large, 2, structureSeed)
	if err != nil {
		return nil, err
	}
	return generatorSpecs(append(medium, large...))
}

func suiteSpecs() ([]wfSpec, error) {
	scs, err := generator.SharedSuite(generator.Medium, 4, structureSeed)
	if err != nil {
		return nil, err
	}
	return generatorSpecs(scs)
}

// passConfig is how a workload drives the program.
type passConfig struct {
	algo          etl.Algorithm // "" = run the workflow as written
	maxStates     int
	searchWorkers int
	partitions    int // > 0 selects the partition-parallel engine
	suite         bool
	suiteWorkers  int
	cacheBytes    int64
}

// passResult is what one pass reports besides its output files.
type passResult struct {
	Window     time.Duration
	AllocBytes uint64
	// InitialCost and BestCost sum the optimizer's figures over the
	// workflows of the pass (both 0 when the pass does not optimize).
	InitialCost, BestCost float64
	Visited, Generated    int
	NodeRows              int64
	Suite                 etl.SuiteStats
}

func (r *passResult) addSearch(opt *etl.Result) {
	r.InitialCost += opt.InitialCost
	r.BestCost += opt.BestCost
	r.Visited += opt.Visited
	r.Generated += opt.Generated
}

// bind opens every CSV in dataDir as a recordset named after the file and
// creates a CSV for each target of g under outDir, so scan and load are
// file I/O exactly as etlrun does them.
func bind(g *etl.Graph, dataDir, outDir string) (map[string]etl.Recordset, error) {
	files, err := filepath.Glob(filepath.Join(dataDir, "*.csv"))
	if err != nil {
		return nil, err
	}
	bindings := make(map[string]etl.Recordset, len(files)+1)
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".csv")
		schema, err := readHeader(path)
		if err != nil {
			return nil, err
		}
		rs, err := data.NewFileRecordset(name, schema, path)
		if err != nil {
			return nil, err
		}
		bindings[name] = rs
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	for _, id := range g.Targets() {
		ref := g.Node(id).RS
		rs, err := data.NewFileRecordset(ref.Name, ref.Schema, csvPath(outDir, ref.Name))
		if err != nil {
			return nil, err
		}
		bindings[ref.Name] = rs
	}
	return bindings, nil
}

// runPass is one load window: workflow texts and CSVs on disk in, target
// CSVs under outDir/<member> out. With tr nil it uses the facade only;
// with a tracer it makes the same calls one layer down with a span around
// each (see tracedPass).
func runPass(cfg passConfig, m *manifest, inDir, outDir string, tr *tracer) (*passResult, error) {
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := &passResult{}
	var err error
	if tr != nil {
		err = tracedPass(ctx, cfg, m, inDir, outDir, tr, res)
	} else {
		err = facadePass(ctx, cfg, m, inDir, outDir, res)
	}
	res.Window = time.Since(start)
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	return res, err
}

func facadePass(ctx context.Context, cfg passConfig, m *manifest, inDir, outDir string, res *passResult) error {
	runOpts := []etl.Option{}
	if cfg.partitions > 0 {
		runOpts = append(runOpts, etl.WithPartitions(cfg.partitions))
	}
	var suite []etl.SuiteWorkflow
	for _, mem := range m.Members {
		text, err := os.ReadFile(filepath.Join(inDir, mem.Workflow))
		if err != nil {
			return err
		}
		g, err := etl.Parse(string(text))
		if err != nil {
			return fmt.Errorf("%s: %w", mem.Name, err)
		}
		if cfg.algo != "" {
			opt, err := etl.Optimize(ctx, g, etl.WithAlgorithm(cfg.algo),
				etl.WithMaxStates(cfg.maxStates), etl.WithWorkers(cfg.searchWorkers))
			if err != nil {
				return fmt.Errorf("%s: %w", mem.Name, err)
			}
			g = opt.Best
			res.addSearch(opt)
		}
		bindings, err := bind(g, filepath.Join(inDir, mem.Data), filepath.Join(outDir, mem.Name))
		if err != nil {
			return err
		}
		if cfg.suite {
			suite = append(suite, etl.SuiteWorkflow{Name: mem.Name, Graph: g, Bindings: bindings})
			continue
		}
		run, err := etl.Run(ctx, g, bindings, runOpts...)
		if err != nil {
			return fmt.Errorf("%s: %w", mem.Name, err)
		}
		res.NodeRows += sumNodeRows(run)
	}
	if !cfg.suite {
		return nil
	}
	out, err := etl.RunSuite(ctx, suite, append(runOpts,
		etl.WithSuiteWorkers(cfg.suiteWorkers),
		etl.WithSharedCache(cfg.cacheBytes),
		etl.WithSharedSpill(filepath.Join(outDir, "spill")))...)
	if err != nil {
		return err
	}
	return suiteOutcome(out, res)
}

func suiteOutcome(out *etl.SuiteResult, res *passResult) error {
	res.Suite = out.Stats
	for _, wf := range out.Workflows {
		if wf.Err != nil {
			return fmt.Errorf("%s: %w", wf.Name, wf.Err)
		}
		res.NodeRows += sumNodeRows(wf.Result)
	}
	return nil
}

func sumNodeRows(run *etl.RunResult) int64 {
	var n int64
	for _, rows := range run.NodeRows {
		n += int64(rows)
	}
	return n
}

// tracedRecordset times a file recordset's Scan and Load as child spans of
// whatever span is executing.
type tracedRecordset struct {
	etl.Recordset
	tr     *tracer
	parent int
}

func (t tracedRecordset) Scan() (etl.Rows, error) {
	id := t.tr.begin("data.scan "+t.Name(), t.parent)
	defer t.tr.end(id)
	return t.Recordset.Scan()
}

func (t tracedRecordset) Load(rows etl.Rows) error {
	id := t.tr.begin("data.load "+t.Name(), t.parent)
	defer t.tr.end(id)
	return t.Recordset.Load(rows)
}

// tracedPass is facadePass with the facade peeled off: dsl.Parse, the core
// search and engine.Run / share.RunSuite are called directly, each inside
// a span, with the option values pkg/etl would have passed down. Scan and
// load spans come from wrapping the file recordsets; per-node spans are
// rebuilt afterwards from the engine journal's node events.
func tracedPass(ctx context.Context, cfg passConfig, m *manifest, inDir, outDir string, tr *tracer, res *passResult) error {
	root := tr.begin("pass", -1)
	defer tr.end(root)
	eopts := []engine.Option{engine.WithMode(engine.Materialized)}
	if cfg.partitions > 0 {
		eopts = []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(cfg.partitions)}
	}
	var suite []share.Workflow
	for _, mem := range m.Members {
		text, err := os.ReadFile(filepath.Join(inDir, mem.Workflow))
		if err != nil {
			return err
		}
		sp := tr.begin("dsl.parse", root)
		g, err := dsl.Parse(string(text))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", mem.Name, err)
		}
		if cfg.algo != "" {
			sp := tr.begin("core.search", root)
			opt, err := search(ctx, cfg, g)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", mem.Name, err)
			}
			g = opt.Best
			res.addSearch(opt)
		}
		bindings, err := bind(g, filepath.Join(inDir, mem.Data), filepath.Join(outDir, mem.Name))
		if err != nil {
			return err
		}
		if cfg.suite {
			suite = append(suite, share.Workflow{Name: mem.Name, Graph: g, Bindings: bindings})
			continue
		}
		sp = tr.begin("engine.run", root)
		for name, rs := range bindings {
			bindings[name] = tracedRecordset{rs, tr, sp}
		}
		journal := openJournal()
		run, err := engine.New(bindings, append(eopts, engine.WithJournal(journal.j))...).Run(ctx, g)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", mem.Name, err)
		}
		res.NodeRows += sumNodeRows(run)
		if err := journal.nodeSpans(tr, sp); err != nil {
			return err
		}
	}
	if !cfg.suite {
		return nil
	}
	sp := tr.begin("share.runsuite", root)
	for _, wf := range suite {
		for name, rs := range wf.Bindings {
			wf.Bindings[name] = tracedRecordset{rs, tr, sp}
		}
	}
	journal := openJournal()
	out, err := share.RunSuite(ctx, suite, share.Options{
		Workers:    cfg.suiteWorkers,
		CacheBytes: cfg.cacheBytes,
		SpillDir:   filepath.Join(outDir, "spill"),
		Engine:     append(eopts, engine.WithJournal(journal.j)),
		Journal:    journal.j,
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := journal.nodeSpans(tr, sp); err != nil {
		return err
	}
	return suiteOutcome(out, res)
}

// runJournal collects one engine run's journal in memory.
type runJournal struct {
	j      *obs.Journal
	buf    bytes.Buffer
	opened time.Time
}

func openJournal() *runJournal {
	r := &runJournal{opened: time.Now()}
	r.j = obs.NewJournal(&r.buf, nil)
	return r
}

// events closes the journal and returns what it recorded.
func (r *runJournal) events() ([]obs.Event, error) {
	if err := r.j.Close(); err != nil {
		return nil, err
	}
	return obs.ReadJournal(&r.buf)
}

// nodeSpans closes the journal and turns its node events into child spans
// of parent. An event is stamped when its node completes, so the span
// starts Sec earlier.
func (r *runJournal) nodeSpans(tr *tracer, parent int) error {
	events, err := r.events()
	if err != nil {
		return err
	}
	for _, e := range events {
		if e.T == obs.EventNode {
			end := r.opened.Add(time.Duration(e.Off * float64(time.Second)))
			tr.add("engine.node "+e.Node, parent, end.Add(-time.Duration(e.Sec*float64(time.Second))), end)
		}
	}
	return nil
}

// search is the core call behind etl.Optimize for the two algorithms the
// workloads use.
func search(ctx context.Context, cfg passConfig, g *etl.Graph) (*etl.Result, error) {
	opts := core.Options{IncrementalCost: true, MaxStates: cfg.maxStates, Workers: cfg.searchWorkers}
	if cfg.algo == etl.HSGreedy {
		return core.HSGreedy(ctx, g, opts)
	}
	return core.Heuristic(ctx, g, opts)
}

// ---- per-layer measurements (traced run only) ----

// perOp times fn in five batches sized to at least 10 ms each and returns
// the median seconds per call.
func perOp(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= 10*time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 4
	}
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, time.Since(start).Seconds()/float64(n))
	}
	return median(per)
}

// timedRuns calls fn k times and returns the median seconds and the median
// heap objects allocated per call.
func timedRuns(k int, fn func() error) (sec, mallocs float64, err error) {
	var secs, allocs []float64
	var before, after runtime.MemStats
	for i := 0; i < k; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	return median(secs), median(allocs), nil
}

// layerMetrics fills every per-layer metric the workload exercises. first
// is the first measured traced pass, whose counts repeat exactly.
func layerMetrics(ms *metricSet, w *workload, cfg passConfig, m *manifest, inDir, outDir string, first *passResult) error {
	ctx := context.Background()
	if first.Generated > 0 {
		ms.set("core.states_visited", float64(first.Visited))
		ms.set("core.states_generated", float64(first.Generated))
		ms.set("core.states_per_s", float64(first.Generated)/ms.vals["pass.optimize_s"].Value)
		ms.set("core.improvement_pct", 100*(first.InitialCost-first.BestCost)/first.InitialCost)
	}
	ms.set("engine.node_rows", float64(first.NodeRows))
	ms.set("engine.rows_per_s", float64(first.NodeRows)/ms.vals["pass.execute_s"].Value)

	// The search layers are measured on the workload's largest workflow.
	var texts []string
	var graphs []*etl.Graph
	var largest *etl.Graph
	nodes := 0
	for _, mem := range m.Members {
		raw, err := os.ReadFile(filepath.Join(inDir, mem.Workflow))
		if err != nil {
			return err
		}
		g, err := dsl.Parse(string(raw))
		if err != nil {
			return err
		}
		texts = append(texts, string(raw))
		graphs = append(graphs, g)
		nodes += g.Len()
		if largest == nil || g.Len() > largest.Len() {
			largest = g
		}
	}
	ms.set("dsl.parse_nodes_per_s", float64(nodes)/perOp(func() {
		for _, t := range texts {
			dsl.Parse(t)
		}
	}))
	if err := searchLayerMetrics(ms, largest); err != nil {
		return err
	}

	// The data layer and the kernels draw from the first feed the first
	// workflow declares.
	feed := graphs[0].Node(graphs[0].Sources()[0]).RS.Name
	dataDir := filepath.Join(inDir, m.Members[0].Data)
	mem, err := memoryBindings(dataDir)
	if err != nil {
		return err
	}
	if err := dataLayerMetrics(ms, csvPath(dataDir, feed), filepath.Join(outDir, "load.csv")); err != nil {
		return err
	}

	switch w.name {
	case wide:
		err = kernelMetrics(ctx, ms, partitionLocalOps, w.kernelRows, mem, feed)
	case keyed:
		err = kernelMetrics(ctx, ms, keySensitiveOps, w.kernelRows, mem, feed)
	}
	if err != nil {
		return err
	}
	if w.name == wide || w.name == keyed {
		opt, err := search(ctx, cfg, graphs[0])
		if err != nil {
			return err
		}
		if err := parallelMetrics(ctx, ms, opt.Best, mem); err != nil {
			return err
		}
		if w.name == wide {
			if err := recorderMetrics(ctx, ms, opt.Best, mem); err != nil {
				return err
			}
		}
	}
	if cfg.suite {
		suiteMetrics(ms, first.Suite)
		solo := 0.0
		for i, member := range m.Members {
			g := graphs[i]
			bindings, err := bind(g, dataDir, filepath.Join(outDir, "solo-"+member.Name))
			if err != nil {
				return err
			}
			sec, _, err := timedRuns(1, func() error {
				_, err := engine.New(bindings).Run(ctx, g)
				return err
			})
			if err != nil {
				return err
			}
			solo += sec
		}
		ms.set("share.solo_sum_s", solo)
	}
	return nil
}

func suiteMetrics(ms *metricSet, s etl.SuiteStats) {
	c := s.Cache
	ms.set("share.nodes_executed", float64(s.NodesExecuted))
	ms.set("share.nodes_independent", float64(s.NodesIndependent))
	ms.set("share.reuse_ratio", 1-float64(s.NodesExecuted)/float64(s.NodesIndependent))
	ms.set("share.cache_hit_ratio", float64(c.Hits)/float64(c.Lookups))
	ms.set("share.hit_bytes", float64(c.HitBytes))
	ms.set("share.spilled_bytes", float64(c.SpilledBytes))
	ms.set("share.spill_loads", float64(c.SpillLoads))
	ms.set("share.stage_recompute_ratio", float64(s.StageRuns)/float64(s.Stages))
}

// searchLayerMetrics times the optimizer's building blocks on one workflow:
// successor enumeration and costing over the initial state and the states
// of a greedy descent from it (the kind of states a search visits), and
// the graph primitives on the initial state.
func searchLayerMetrics(ms *metricSet, g0 *etl.Graph) error {
	model := cost.RowModel{}
	states := []*etl.Graph{g0}
	cur, err := cost.Evaluate(g0, model)
	if err != nil {
		return err
	}
	for len(states) < 12 {
		var next *etl.Graph
		for _, succ := range transitions.Enumerate(states[len(states)-1]) {
			c, err := cost.Evaluate(succ.Graph, model)
			if err != nil {
				return err
			}
			if c.Total < cur.Total {
				next, cur = succ.Graph, c
				break
			}
		}
		if next == nil {
			break
		}
		states = append(states, next)
	}

	successors := 0
	for _, g := range states {
		successors += len(transitions.Enumerate(g))
	}
	n := float64(len(states))
	ms.set("transitions.successors_per_state", float64(successors)/n)
	ms.set("transitions.enumerate_us_per_state", 1e6/n*perOp(func() {
		for _, g := range states {
			transitions.Enumerate(g)
		}
	}))

	ms.set("cost.evaluate_us", 1e6/n*perOp(func() {
		for _, g := range states {
			cost.Evaluate(g, model)
		}
	}))
	prev := make([]*cost.Costing, len(states))
	dirty := make([][]etl.NodeID, len(states))
	for i, g := range states {
		if prev[i], err = cost.Evaluate(g, model); err != nil {
			return err
		}
		acts := g.Activities()
		dirty[i] = acts[len(acts)/2 : len(acts)/2+2]
	}
	ms.set("cost.evaluate_incremental_us", 1e6/n*perOp(func() {
		for i, g := range states {
			cost.EvaluateIncremental(prev[i], g, model, dirty[i])
		}
	}))
	memo := cost.NewMemo(model)
	for _, g := range states {
		if _, err := cost.Evaluate(g, memo); err != nil {
			return err
		}
	}
	hits, misses := memo.Stats()
	ms.set("cost.memo_hit_ratio", float64(hits)/float64(hits+misses))

	ms.set("workflow.signature_us", 1e6*perOp(func() { g0.Signature() }))
	ms.set("workflow.fingerprint_us", 1e6*perOp(func() { g0.Fingerprint() }))
	ms.set("workflow.mutate_us", 1e6*perOp(func() { g0.Mutate() }))
	ms.set("workflow.clone_us", 1e6*perOp(func() { g0.Clone() }))
	scratch := g0.Clone()
	ms.set("workflow.regenerate_schemata_us", 1e6*perOp(func() { scratch.RegenerateSchemata() }))
	return nil
}

// memoryBindings scans every CSV of a data directory into a memory
// recordset.
func memoryBindings(dataDir string) (map[string]etl.Recordset, error) {
	files, err := filepath.Glob(csvPath(dataDir, "*"))
	if err != nil {
		return nil, err
	}
	mem := map[string]etl.Recordset{}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".csv")
		schema, err := readHeader(path)
		if err != nil {
			return nil, err
		}
		file, err := data.NewFileRecordset(name, schema, path)
		if err != nil {
			return nil, err
		}
		rows, err := file.Scan()
		if err != nil {
			return nil, err
		}
		rs := data.NewMemoryRecordset(name, schema)
		if err := rs.Load(rows); err != nil {
			return nil, err
		}
		mem[name] = rs
	}
	return mem, nil
}

// dataLayerMetrics times the storage layer on one of the workload's own
// files: CSV scan and load, key rendering and digesting.
func dataLayerMetrics(ms *metricSet, path, loadPath string) error {
	schema, err := readHeader(path)
	if err != nil {
		return err
	}
	file, err := data.NewFileRecordset("feed", schema, path)
	if err != nil {
		return err
	}
	var rows etl.Rows
	sec, mallocs, err := timedRuns(3, func() (err error) {
		rows, err = file.Scan()
		return err
	})
	if err != nil {
		return err
	}
	n := float64(len(rows))
	ms.set("data.scan_rows_per_s", n/sec)
	ms.set("data.scan_allocs_per_row", mallocs/n)

	sec, _, err = timedRuns(3, func() error {
		if err := os.Remove(loadPath); err != nil && !os.IsNotExist(err) {
			return err
		}
		out, err := data.NewFileRecordset("feed", schema, loadPath)
		if err != nil {
			return err
		}
		return out.Load(rows)
	})
	if err != nil {
		return err
	}
	ms.set("data.load_rows_per_s", n/sec)

	sec, mallocs, _ = timedRuns(3, func() error {
		for _, r := range rows {
			r.Key()
		}
		return nil
	})
	ms.set("data.record_key_ns", 1e9*sec/n)
	ms.set("data.record_key_allocs", mallocs/n)
	sec, _, _ = timedRuns(3, func() error {
		rows.Digest()
		return nil
	})
	ms.set("data.digest_ns_per_row", 1e9*sec/n)
	return nil
}

// kernelMetrics times each operator as a one-activity workflow (memory
// source → operator → unbound target) over kernelRows rows cycled from the
// workload's own feed. A figure includes handing the rows in and out of
// the engine, which is the same for every operator.
func kernelMetrics(ctx context.Context, ms *metricSet, ops []string, kernelRows int, mem map[string]etl.Recordset, feed string) error {
	schema := mem[feed].Schema()
	all, err := mem[feed].Scan()
	if err != nil {
		return err
	}
	input := make(etl.Rows, kernelRows)
	for i := range input {
		input[i] = all[i%len(all)]
	}
	bindings := map[string]etl.Recordset{}
	for name, rs := range mem {
		bindings[name] = rs
	}
	load := func(name string, rows etl.Rows) error {
		rs := data.NewMemoryRecordset(name, schema)
		bindings[name] = rs
		return rs.Load(rows)
	}
	if err := load("KIN", input); err != nil {
		return err
	}
	if err := load("KHALF1", input[:kernelRows/2]); err != nil {
		return err
	}
	if err := load("KHALF2", input[kernelRows/2:]); err != nil {
		return err
	}
	for _, op := range ops {
		g, err := dsl.Parse(kernelText(op, kernelRows, schema, mem))
		if err != nil {
			return fmt.Errorf("kernel %s: %w", op, err)
		}
		sec, mallocs, err := timedRuns(5, func() error {
			_, err := engine.New(bindings).Run(ctx, g)
			return err
		})
		if err != nil {
			return fmt.Errorf("kernel %s: %w", op, err)
		}
		ms.set("engine.op_ns_per_row."+op, 1e9*sec/float64(kernelRows))
		ms.set("engine.op_allocs_per_row."+op, mallocs/float64(kernelRows))
	}
	return nil
}

// kernelText writes the one-activity workflow for op over a feed with the
// given schema. The partition-local operators read a generator feed (KEY,
// measures, CODE, DATE, XTRAn); the key-sensitive ones read window-keyed's
// order feed and its key sets.
func kernelText(op string, kernelRows int, schema etl.Schema, mem map[string]etl.Recordset) string {
	measure := ""
	for _, attr := range schema {
		if strings.HasPrefix(attr, "V") || strings.HasPrefix(attr, "RAW") {
			measure = attr
			break
		}
	}
	without := func(attr string) etl.Schema { return schema.Minus(etl.Schema{attr}) }
	source := func(name string) string {
		return fmt.Sprintf("recordset %s source rows=%d schema=%s\n", name, kernelRows, mem[name].Schema())
	}
	var activity, right string
	out := schema
	switch op {
	case "filter":
		activity = fmt.Sprintf(`filter pred="(%s>=100)" sel=0.5`, measure)
	case "notnull":
		activity = "notnull attrs=" + measure
	case "convert":
		activity = fmt.Sprintf("convert fn=scale10 args=%s out=SCALED", measure)
		out = append(without(measure), "SCALED")
	case "reformat":
		activity = "reformat fn=a2edate attr=DATE"
	case "project":
		activity = "project attrs=XTRA1"
		out = without("XTRA1")
	case "union":
		activity = "union"
	case "sk":
		activity = "sk key=KEY out=SKEY lookup=SKLOOKUP"
		out = append(without("KEY"), "SKEY")
	case "pkcheck_lookup":
		activity = "pkcheck attrs=KEY lookup=DWKEYS"
	case "distinct":
		activity = "distinct"
	case "pkcheck_group":
		activity = "pkcheck attrs=ORDER_ID"
	case "aggregate":
		activity = "aggregate group=CUST fn=sum attr=AMOUNT out=TOTAL"
		out = etl.Schema{"CUST", "TOTAL"}
	case "join":
		activity, right = "join keys=CUST", "CUSTKEYS"
		out = append(schema.Clone(), "CUST_SK")
	case "diff":
		activity, right = "diff keys=ORDER_ID", "CANCELLED"
	case "intersect":
		activity, right = "intersect keys=CUST", "CUSTKEYS"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "recordset KOUT target schema=%s\nactivity op %s\n", out, activity)
	switch {
	case op == "union":
		fmt.Fprintf(&b, "recordset KHALF1 source rows=%d schema=%s\n", kernelRows/2, schema)
		fmt.Fprintf(&b, "recordset KHALF2 source rows=%d schema=%s\n", kernelRows/2, schema)
		b.WriteString("flow KHALF1 -> op\nflow KHALF2 -> op\n")
	case right != "":
		fmt.Fprintf(&b, "recordset KIN source rows=%d schema=%s\n", kernelRows, schema)
		b.WriteString(source(right) + "flow KIN -> op\nflow " + right + " -> op\n")
	default:
		fmt.Fprintf(&b, "recordset KIN source rows=%d schema=%s\nflow KIN -> op\n", kernelRows, schema)
	}
	b.WriteString("flow op -> KOUT\n")
	return b.String()
}

// parallelMetrics runs the optimized plan through the partitioned engine
// at P=1 and P=min(nproc,2) over memory bindings, and reads partition skew
// off the journal's batch events: the slowest partition sets a partitioned
// node's time.
func parallelMetrics(ctx context.Context, ms *metricSet, g *etl.Graph, mem map[string]etl.Recordset) error {
	p := parallelism()
	at := func(parts int) (float64, error) {
		sec, _, err := timedRuns(3, func() error {
			_, err := engine.New(mem, engine.WithMode(engine.Parallel), engine.WithPartitions(parts)).Run(ctx, g)
			return err
		})
		return sec, err
	}
	p1, err := at(1)
	if err != nil {
		return err
	}
	pn, err := at(p)
	if err != nil {
		return err
	}
	ms.set("engine.parallel_pn_over_p1", pn/p1)

	journal := openJournal()
	if _, err := engine.New(mem, engine.WithMode(engine.Parallel), engine.WithPartitions(p),
		engine.WithJournal(journal.j)).Run(ctx, g); err != nil {
		return err
	}
	events, err := journal.events()
	if err != nil {
		return err
	}
	// Per node, the largest partition's rows against the mean; summed over
	// nodes, that is the work the slowest partitions did over an even split.
	perNode := map[string][]float64{}
	for _, e := range events {
		if e.T == obs.EventBatch && e.Part < p {
			if perNode[e.Node] == nil {
				perNode[e.Node] = make([]float64, p)
			}
			perNode[e.Node][e.Part] += float64(e.Rows)
		}
	}
	most, total := 0.0, 0.0
	for _, parts := range perNode {
		largest := 0.0
		for _, rows := range parts {
			total += rows
			if rows > largest {
				largest = rows
			}
		}
		most += largest
	}
	if total > 0 {
		ms.set("engine.partition_skew", most/(total/float64(p)))
	}
	return nil
}

// recorderMetrics prices the two recorders the passes leave off: the same
// plan with and without the journal and the metrics registry.
func recorderMetrics(ctx context.Context, ms *metricSet, g *etl.Graph, mem map[string]etl.Recordset) error {
	var journal *runJournal
	// The variants take turns going first: whichever run follows the
	// collection of the previous one's garbage is not always the same one.
	variants := []func() []engine.Option{
		func() []engine.Option { return nil },
		func() []engine.Option {
			journal = openJournal()
			return []engine.Option{engine.WithJournal(journal.j)}
		},
		func() []engine.Option { return []engine.Option{engine.WithMetrics(obs.NewRegistry())} },
	}
	secs := make([][]float64, len(variants))
	for round := 0; round < 6; round++ {
		for k := range variants {
			i := (round + k) % len(variants)
			o := variants[i]()
			sec, _, err := timedRuns(1, func() error {
				_, err := engine.New(mem, o...).Run(ctx, g)
				return err
			})
			if err != nil {
				return err
			}
			secs[i] = append(secs[i], sec)
			if i == 1 {
				if err := journal.j.Close(); err != nil {
					return err
				}
			}
		}
	}
	plain := median(secs[0])
	ms.set("obs.journal_overhead_pct", 100*(median(secs[1])-plain)/plain)
	ms.set("obs.metrics_overhead_pct", 100*(median(secs[2])-plain)/plain)
	ms.set("obs.journal_events", float64(journal.j.Written()))
	ms.set("obs.journal_dropped", float64(journal.j.Dropped()))
	return nil
}
