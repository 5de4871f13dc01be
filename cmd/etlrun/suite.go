package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/obs"
	"etlopt/internal/share"
	"etlopt/internal/workflow"
)

// suiteFlags is the slice of the CLI configuration suite mode consumes.
type suiteFlags struct {
	engine     []engine.Option // of -mode, -partitions, -faults, -retries
	dataDir    string
	workers    int
	cacheBytes int64
	spillDir   string
	metrics    string
	journal    string
}

// runSuite executes several workflow files as one shared-work job.
func runSuite(files []string, f suiteFlags) error {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var reg *obs.Registry
	if f.metrics != "" {
		reg = obs.NewRegistry()
	}
	var jnl *obs.Journal
	if f.journal != "" {
		var err error
		jnl, err = obs.NewJournalFile(f.journal, reg)
		if err != nil {
			return err
		}
		defer jnl.Close()
	}

	wfs := make([]share.Workflow, 0, len(files))
	targetPaths := map[string]string{}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		g, err := dsl.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		dir := suiteDataDir(f.dataDir, file)
		bindings, err := bindCSV(g, dir)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		name := workflowName(file)
		if err := checkTargetCollisions(g, dir, name, targetPaths); err != nil {
			return err
		}
		wfs = append(wfs, share.Workflow{Name: name, Graph: g, Bindings: bindings})
	}

	res, err := share.RunSuite(ctx, wfs, share.Options{
		Workers:    f.workers,
		CacheBytes: f.cacheBytes,
		SpillDir:   f.spillDir,
		Engine:     append(f.engine, engine.WithMetrics(reg), engine.WithJournal(jnl)),
		Journal:    jnl,
		Metrics:    reg,
	})
	if err != nil {
		return err
	}

	failed := 0
	for i, wr := range res.Workflows {
		if wr.Err != nil {
			failed++
			fmt.Printf("workflow %s: FAILED: %v\n", wr.Name, wr.Err)
			continue
		}
		fmt.Printf("workflow %s: executed in %v\n", wr.Name, wr.Result.Elapsed.Round(time.Millisecond))
		dir := suiteDataDir(f.dataDir, files[i])
		for _, name := range wr.Result.SortTargets() {
			fmt.Printf("  target %s: %d rows written to %s\n",
				name, len(wr.Result.Targets[name]), csvPath(dir, name))
		}
	}

	st := res.Stats
	fmt.Printf("suite: %d workflows, %d shared stages, %d stage runs\n",
		st.Workflows, st.Stages, st.StageRuns)
	fmt.Printf("  nodes executed %d of %d independent (%d saved)\n",
		st.NodesExecuted, st.NodesIndependent, st.NodesIndependent-st.NodesExecuted)
	fmt.Printf("  cache: %d lookups, %d hits, %d misses, %d evictions, %d spills; %d bytes of recomputation saved\n",
		st.Cache.Lookups, st.Cache.Hits, st.Cache.Misses,
		st.Cache.Evictions, st.Cache.Spills, st.Cache.HitBytes)

	if f.metrics != "" {
		if err := reg.Snapshot().WriteJSONFile(f.metrics); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", f.metrics)
	}
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "etlrun: journal:", err)
		}
		fmt.Printf("run journal written to %s (%d events, %d dropped)\n",
			f.journal, jnl.Written(), jnl.Dropped())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workflows failed", failed, len(res.Workflows))
	}
	return nil
}

// suiteDataDir returns the per-workflow data directory: the base dir's
// subdirectory named after the workflow file when it exists, the base dir
// itself otherwise.
func suiteDataDir(base, file string) string {
	sub := filepath.Join(base, workflowName(file))
	if st, err := os.Stat(sub); err == nil && st.IsDir() {
		return sub
	}
	return base
}

func workflowName(file string) string {
	return strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
}

// checkTargetCollisions rejects suites in which two workflows would write
// the same target CSV: concurrent members must not race on output files.
// Per-workflow data subdirectories (<data-dir>/<workflow-basename>/) keep
// same-named targets apart.
func checkTargetCollisions(g *workflow.Graph, dir, name string, seen map[string]string) error {
	for _, id := range g.Targets() {
		n := g.Node(id)
		if n.Kind != workflow.KindRecordset {
			continue
		}
		path := csvPath(dir, n.RS.Name)
		if prev, dup := seen[path]; dup {
			return fmt.Errorf("workflows %s and %s both write %s; give each a data subdirectory %s",
				prev, name, path, filepath.Join(dir, "<workflow-basename>"))
		}
		seen[path] = name
	}
	return nil
}
