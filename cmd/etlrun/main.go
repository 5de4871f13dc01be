// Command etlrun executes an ETL workflow definition against CSV record
// files: every source recordset, surrogate-key lookup and key set named by
// the workflow is bound to <data-dir>/<name>.csv, and target recordsets
// are written to <data-dir>/<name>.csv as well. Optionally the workflow is
// optimized before running, executed partitioned, and checkpointed so an
// interrupted load resumes instead of restarting. -checkpoint stages one
// typed row file per completed stage plus a MANIFEST, removes only those
// files when the load completes, honours -partitions (the staged files
// are the same at any partition count), and composes with -faults and
// -journal. An -optimize or -faults value etlrun does not know is
// rejected before any file is created or written.
//
// Usage:
//
//	etlrun -in workflow.etl -data ./data [-optimize hs|greedy|es] [-workers N]
//	       [-partitions P] [-checkpoint ./stage] [-faults SEED:RATE] [-retries N]
//	       [-impact NODE] [-journal run.jsonl] [-cpuprofile cpu.pprof]
//
// Passing several workflow files (positionally, or one via -in plus the
// rest positionally) switches to suite mode: the workflows execute as one
// job through the shared-work scheduler, which detects upstream closures
// the workflows have in common and computes each exactly once through a
// content-addressed intermediate-result cache. Each workflow binds its
// recordsets under <data-dir>/<workflow-basename>/ when that directory
// exists, and under <data-dir> directly otherwise:
//
//	etlrun -data ./data [-suite-workers N] [-shared-cache BYTES]
//	       [-shared-spill DIR] load1.etl load2.etl load3.etl
//
// Suite mode is execution-only: -optimize, -workers, -checkpoint, -impact,
// -explain and -calibrate apply to single-workflow runs, and a suite
// refuses them; a single-workflow run refuses -suite-workers,
// -shared-cache and -shared-spill. A flag is refused, too, without the one
// whose work it tunes: -workers without -optimize, -retries without
// -faults, -shared-spill without a bounded -shared-cache.
//
// Flag vocabulary (shared across etlrun, etlopt and etlbench): -workers
// controls optimizer search parallelism (goroutines expanding the state
// space), while -partitions controls engine data parallelism (how many
// ways each recordset is split, checkpointed or not).
// They are independent knobs for independent phases; -suite-workers is a
// third, bounding how many workflows and shared stages run concurrently
// in suite mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etlrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in         = flag.String("in", "", "workflow definition file")
		dataDir    = flag.String("data", ".", "directory of <name>.csv record files")
		optimize   = flag.String("optimize", "", "optimize first: es, hs or greedy")
		workers    = flag.Int("workers", 0, "optimizer search parallelism: worker goroutines for -optimize (0 = GOMAXPROCS)")
		partitions = flag.Int("partitions", 1, "engine data parallelism: partitions per recordset, with or without -checkpoint (0 = GOMAXPROCS)")
		checkpoint = flag.String("checkpoint", "", "staging directory for resumable execution: a typed row file per completed stage and a MANIFEST, removed once the load completes (honours -partitions)")
		impact     = flag.String("impact", "", "print the impact analysis of the named recordset and exit")
		explain    = flag.Bool("explain", false, "print estimated vs actual cardinalities after the run")
		calibrate  = flag.Bool("calibrate", false, "after running, calibrate selectivities from observation and report the re-optimized plan")
		journal    = flag.String("journal", "", "record a structured run journal (JSONL flight recorder; etlvet obs reports it, -format trace writes its spans, -format snapshot its metrics) here")
		faults     = flag.String("faults", "", "arm deterministic fault injection as seed:rate (e.g. 42:0.05); transient faults are retried")
		retries    = flag.Int("retries", 6, "per-node attempt budget for retrying injected transient faults (with -faults)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile here; search workers and engine partitions are labeled")
		suiteWork  = flag.Int("suite-workers", 0, "suite mode: concurrent shared stages and workflows (0 = GOMAXPROCS)")
		sharedCap  = flag.Int64("shared-cache", -1, "suite mode: bytes of shared intermediates held in memory; a stage that does not fit is spilled to disk as it is made (-1 = unbounded, 0 = none held)")
		sharedSpil = flag.String("shared-spill", "", "suite mode: directory for the typed row files that stages over -shared-cache spill to (default: the system temporary directory), each removed after its last reader and all when the run ends")
	)
	flag.Parse()
	// Every count and every flag with a closed vocabulary is checked here,
	// before the journal, the profile or a target file exists.
	for _, c := range []struct {
		name    string
		v, min  int64
		accepts string
	}{
		{"partitions", int64(*partitions), 0, "0 (GOMAXPROCS) or more"},
		{"workers", int64(*workers), 0, "0 (GOMAXPROCS) or more"},
		{"suite-workers", int64(*suiteWork), 0, "0 (GOMAXPROCS) or more"},
		{"retries", int64(*retries), 1, "1 or more"},
		{"shared-cache", *sharedCap, -1, "-1 (unbounded), 0 or more"},
	} {
		if c.v < c.min {
			return fmt.Errorf("-%s %d: want %s", c.name, c.v, c.accepts)
		}
	}
	eopts, err := engineOptions(*partitions, *faults, *retries)
	if err != nil {
		return err
	}
	search, ok := optimizers[*optimize]
	if !ok && *optimize != "" {
		return fmt.Errorf("unknown optimizer %q (accepted: es, greedy, hs)", *optimize)
	}
	files := flag.Args()
	if *in != "" {
		files = append([]string{*in}, files...)
	}
	if len(files) == 0 {
		flag.Usage()
		return fmt.Errorf("missing workflow file (-in or positional)")
	}
	// A flag set on the command line that the mode does not read is
	// refused. A slice, not a map: with two such flags set the error names
	// the same one in every run.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ignored, mode := []string{"suite-workers", "shared-cache", "shared-spill"}, "suites, not single-workflow runs"
	if len(files) > 1 {
		ignored = []string{"optimize", "workers", "checkpoint", "impact", "explain", "calibrate"}
		mode = "single-workflow runs, not suites"
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s applies to %s", name, mode)
		}
	}
	// So is a flag set without the one whose work it tunes.
	for _, c := range []struct {
		name, with string
		on         bool
	}{
		{"workers", "-optimize", *optimize != ""},
		{"retries", "-faults", *faults != ""},
		{"shared-spill", "-shared-cache 0 or more", *sharedCap >= 0},
	} {
		if set[c.name] && !c.on {
			return fmt.Errorf("-%s applies only with %s", c.name, c.with)
		}
	}
	if *cpuProf != "" {
		eopts = append(eopts, engine.WithPprofLabels())
	}
	if len(files) > 1 {
		return runSuite(files, suiteFlags{
			engine: eopts, dataDir: *dataDir,
			workers: *suiteWork, cacheBytes: *sharedCap, spillDir: *sharedSpil,
			journal: *journal, cpuProfile: *cpuProf,
		})
	}
	*in = files[0]
	// An interrupt cancels the optimizer and the engine; with -checkpoint,
	// completed stages stay staged so a re-run resumes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	src, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	g, err := dsl.Parse(string(src))
	if err != nil {
		return err
	}

	if *impact != "" {
		return printImpact(g, *impact)
	}

	var jnl *obs.Journal
	if *journal != "" {
		jnl, err = obs.NewJournalFile(*journal, obs.NewRegistry())
		if err != nil {
			return err
		}
		// Close on every exit path; the success path closes first (the
		// second Close is a no-op) so write errors are reported.
		defer jnl.Close()
	}
	stopProfile, err := startCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	defer stopProfile()
	if search != nil {
		res, err := search(ctx, g, core.Options{
			IncrementalCost: true, Workers: *workers, Journal: jnl, PprofLabels: *cpuProf != "",
		})
		if err != nil {
			return err
		}
		fmt.Printf("optimized with %s: cost %.0f -> %.0f (%.1f%%)\n",
			res.Algorithm, res.InitialCost, res.BestCost, res.Improvement())
		g = res.Best
	}

	bindings, err := bindCSV(g, *dataDir)
	if err != nil {
		return err
	}

	e := engine.New(bindings, append(eopts, engine.WithJournal(jnl))...)

	var result *engine.RunResult
	if *checkpoint != "" {
		cr := engine.NewCheckpointRunner(e, *checkpoint)
		if staged, _ := cr.Staged(); len(staged) > 0 {
			fmt.Printf("resuming: %d staged stages found\n", len(staged))
		}
		result, err = cr.Run(ctx, g)
		if err != nil {
			if staged, _ := cr.Staged(); len(staged) > 0 {
				return fmt.Errorf("run failed (progress staged in %s, re-run to resume): %w", *checkpoint, err)
			}
			return err
		}
	} else {
		result, err = e.Run(ctx, g)
		if err != nil {
			return err
		}
	}

	fmt.Printf("executed in %v\n", result.Elapsed.Round(time.Millisecond))
	order, _ := g.TopoSort()
	for _, id := range order {
		n := g.Node(id)
		fmt.Printf("  %3d %-35s %8d rows\n", id, n.Label(), result.NodeRows[id])
	}
	for _, name := range result.SortTargets() {
		fmt.Printf("target %s: %d rows written to %s\n",
			name, len(result.Targets[name]), csvPath(*dataDir, name))
	}

	if *explain {
		est, err := cost.Explain(g, cost.RowModel{}, result.NodeRows)
		if err != nil {
			return err
		}
		fmt.Println("\nestimated vs actual cardinalities:")
		fmt.Print(cost.FormatExplain(est))
	}
	if *calibrate {
		cal, err := cost.Calibrate(g, result.NodeRows)
		if err != nil {
			return err
		}
		res, err := core.Heuristic(ctx, cal, core.Options{IncrementalCost: true})
		if err != nil {
			return err
		}
		fmt.Printf("\ncalibrated re-optimization: cost %.0f -> %.0f (%.1f%%)\n",
			res.InitialCost, res.BestCost, res.Improvement())
		fmt.Println("re-optimized plan under observed selectivities:")
		fmt.Print(res.Best)
	}
	if jnl != nil {
		// Journal write failures are non-fatal by design — the load
		// already completed — but a truncated journal deserves a warning.
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "etlrun: journal:", err)
		}
		fmt.Printf("run journal written to %s (%d events, %d dropped)\n",
			*journal, jnl.Written(), jnl.Dropped())
	}
	return nil
}

// optimizers are the values -optimize accepts.
var optimizers = map[string]func(context.Context, *workflow.Graph, core.Options) (*core.Result, error){
	"es": core.Exhaustive, "hs": core.Heuristic, "greedy": core.HSGreedy,
}

// startCPUProfile starts a CPU profile written to path ("": none) and
// returns what stops it.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "etlrun: closing cpu profile:", err)
		}
	}, nil
}

// engineOptions lowers -partitions, -faults and -retries to engine
// options, the same way for single runs and suites; the caller adds the
// run's registry and journal.
func engineOptions(partitions int, faults string, retries int) ([]engine.Option, error) {
	eopts := []engine.Option{engine.WithPartitions(partitions)}
	if faults != "" {
		seed, rate, err := fault.ParseSpec(faults)
		if err != nil {
			return nil, err
		}
		eopts = append(eopts,
			engine.WithFaultPlan(fault.NewPlan(seed, rate)),
			engine.WithRetry(fault.Policy{
				MaxAttempts: retries,
				BaseDelay:   time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
				Seed:        seed,
			}))
	}
	return eopts, nil
}

// bindCSV binds every recordset the workflow names — sources and targets
// from the graph, plus lookup recordsets referenced by surrogate-key and
// key-check activities — to CSV files in dir. Source and lookup files must
// exist; target files are created.
func bindCSV(g *workflow.Graph, dir string) (map[string]data.Recordset, error) {
	bindings := map[string]data.Recordset{}

	bind := func(name string, schema data.Schema, mustExist bool) error {
		if _, dup := bindings[name]; dup {
			return nil
		}
		path := csvPath(dir, name)
		if mustExist {
			if _, err := os.Stat(path); err != nil {
				return fmt.Errorf("recordset %q: %w", name, err)
			}
			// Schema comes from the file header for lookups (schema nil).
			if schema == nil {
				header, err := data.ReadCSVHeader(path)
				if err != nil {
					return err
				}
				schema = header
			}
		}
		rs, err := data.NewFileRecordset(name, schema, path)
		if err != nil {
			return err
		}
		bindings[name] = rs
		return nil
	}

	for _, id := range g.Recordsets() {
		n := g.Node(id)
		isSource := len(g.Providers(id)) == 0
		if err := bind(n.RS.Name, n.RS.Schema, isSource); err != nil {
			return nil, err
		}
	}
	for _, id := range g.Activities() {
		a := g.Node(id).Act
		if a.Sem.Lookup != "" {
			if err := bind(a.Sem.Lookup, nil, true); err != nil {
				return nil, err
			}
		}
	}
	return bindings, nil
}

func csvPath(dir, name string) string {
	return filepath.Join(dir, strings.ReplaceAll(name, string(filepath.Separator), "_")+".csv")
}

// printImpact renders the change/failure impact analysis for the named
// recordset or activity identifier.
func printImpact(g *workflow.Graph, name string) error {
	names := dsl.NodeNames(g)
	var known []string
	var matches []workflow.NodeID
	for id, n := range names {
		known = append(known, n)
		if n == name {
			matches = append(matches, id)
		}
	}
	if len(matches) == 0 {
		sort.Strings(known)
		return fmt.Errorf("unknown node %q (have: %s)", name, strings.Join(known, ", "))
	}
	// Collect-then-sort keeps the pick independent of map iteration order:
	// the smallest matching node ID wins, deterministically.
	sort.Slice(matches, func(i, j int) bool { return matches[i] < matches[j] })
	target := matches[0]
	imp, err := g.AnalyzeImpact(target)
	if err != nil {
		return err
	}
	fmt.Printf("impact of a change or failure at %s:\n", name)
	fmt.Printf("  downstream (must re-run): %d nodes\n", len(imp.Downstream))
	for _, id := range imp.Downstream {
		fmt.Printf("    %s\n", names[id])
	}
	fmt.Printf("  stale targets: %v\n", imp.Targets)
	fmt.Printf("  upstream dependencies: %d nodes (sources: %v)\n", len(imp.Upstream), imp.Sources)
	un, err := g.UnaffectedBy(target)
	if err != nil {
		return err
	}
	fmt.Printf("  unaffected activities: %d\n", len(un))
	return nil
}
