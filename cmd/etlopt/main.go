// Command etlopt optimizes an ETL workflow definition: it parses a
// workflow file, runs one of the paper's three search algorithms (ES, HS,
// HS-Greedy), reports the cost improvement, and optionally writes the
// optimized workflow back out.
//
// Usage:
//
//	etlopt -in workflow.etl [-algo hs|greedy|es] [-maxstates N]
//	       [-workers N] [-timeout 30s] [-out optimized.etl] [-verbose]
//	       [-lint] [-trace trace.json] [-metrics snap.json]
//	       [-journal run.jsonl] [-cpuprofile cpu.pprof]
//
// An interrupt (Ctrl-C) cancels the search and exits with an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"time"

	"etlopt/internal/analysis"
	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/dsl"
	"etlopt/internal/equiv"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etlopt:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "workflow definition file ('-' for stdin)")
		algo      = flag.String("algo", "hs", "search algorithm: es, hs or greedy")
		maxStates = flag.Int("maxstates", 0, "state generation budget (0 = default)")
		workers   = flag.Int("workers", 0, "search parallelism (0 = all CPUs, 1 = sequential; same result either way)")
		timeout   = flag.Duration("timeout", 0, "abort the search after this long (0 = none)")
		out       = flag.String("out", "", "write the optimized workflow definition here")
		verbose   = flag.Bool("verbose", false, "print both workflow graphs")
		lintOnly  = flag.Bool("lint", false, "run the design checks and exit (warnings exit nonzero)")
		dot       = flag.Bool("dot", false, "print the optimized workflow in Graphviz dot syntax")
		tracePath = flag.String("trace", "", "record the transition trace here (JSON, auditable with etlvet trace)")
		metrics   = flag.String("metrics", "", "write a JSON metrics snapshot here after the search (auditable with etlvet metrics)")
		journal   = flag.String("journal", "", "record a structured run journal (JSONL flight recorder; etlvet obs reports it, etlvet obs -format trace writes its spans) here")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile here; search workers are labeled (etl=search, etl_worker=N)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("missing -in")
	}

	var src []byte
	var err error
	if *in == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*in)
	}
	if err != nil {
		return err
	}
	g, err := dsl.Parse(string(src))
	if err != nil {
		return err
	}

	if *lintOnly {
		warnings, err := analysis.RunLint(os.Stdout, g, dsl.NodeNames(g))
		if err != nil {
			return err
		}
		if warnings > 0 {
			return fmt.Errorf("%d warning(s)", warnings)
		}
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
	}
	var jnl *obs.Journal
	if *journal != "" {
		jnl, err = obs.NewJournalFile(*journal, reg)
		if err != nil {
			return err
		}
		// Close on every exit path; the success path closes first (the
		// second Close is a no-op) so write errors are reported.
		defer jnl.Close()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "etlopt: closing cpu profile:", err)
			}
		}()
	}
	if *timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, *timeout)
		defer cancelTimeout()
	}
	opts := core.Options{
		MaxStates:       *maxStates,
		Workers:         *workers,
		IncrementalCost: true,
		Trace:           *tracePath != "",
		Metrics:         reg,
		Journal:         jnl,
		PprofLabels:     *cpuProf != "",
	}
	var res *core.Result
	switch *algo {
	case "es":
		res, err = core.Exhaustive(ctx, g, opts)
	case "hs":
		res, err = core.Heuristic(ctx, g, opts)
	case "greedy":
		res, err = core.HSGreedy(ctx, g, opts)
	default:
		return fmt.Errorf("unknown algorithm %q (want es, hs or greedy)", *algo)
	}
	if err != nil {
		return err
	}

	report(os.Stdout, g, res, *verbose)

	if equalOK, why, err := equiv.Equivalent(g, res.Best); err != nil {
		return err
	} else if !equalOK {
		return fmt.Errorf("internal error: optimized workflow not equivalent: %s", why)
	}

	if *tracePath != "" {
		t, err := analysis.NewTrace(res, g, cost.RowModel{})
		if err != nil {
			return err
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := t.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("transition trace written to %s (%d steps)\n", *tracePath, len(t.Steps))
	}

	if *metrics != "" {
		if err := reg.Snapshot().WriteJSONFile(*metrics); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", *metrics)
	}

	if jnl != nil {
		// Journal write failures are non-fatal by design — the search
		// already succeeded — but a truncated journal deserves a warning.
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "etlopt: journal:", err)
		}
		fmt.Printf("run journal written to %s (%d events, %d dropped)\n",
			*journal, jnl.Written(), jnl.Dropped())
	}

	if *dot {
		fmt.Print(res.Best.DOT(fmt.Sprintf("%s (%.1f%% improvement)", res.Algorithm, res.Improvement())))
	}

	if *out != "" {
		text, err := dsl.Serialize(res.Best)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Printf("optimized workflow written to %s\n", *out)
	}
	return nil
}

func report(w io.Writer, g0 *workflow.Graph, res *core.Result, verbose bool) {
	fmt.Fprintf(w, "algorithm:           %s\n", res.Algorithm)
	fmt.Fprintf(w, "initial signature:   %s\n", g0.Signature())
	fmt.Fprintf(w, "initial cost:        %.1f\n", res.InitialCost)
	fmt.Fprintf(w, "optimized signature: %s\n", res.Best.Signature())
	fmt.Fprintf(w, "optimized cost:      %.1f\n", res.BestCost)
	fmt.Fprintf(w, "improvement:         %.1f%%\n", res.Improvement())
	fmt.Fprintf(w, "visited states:      %d\n", res.Visited)
	fmt.Fprintf(w, "elapsed:             %v\n", res.Elapsed.Round(time.Millisecond))
	if !res.Terminated {
		fmt.Fprintln(w, "note: the search budget expired before the space closed")
	}
	if verbose {
		fmt.Fprintln(w, "\ninitial workflow:")
		fmt.Fprint(w, g0.String())
		fmt.Fprintln(w, "\noptimized workflow:")
		fmt.Fprint(w, res.Best.String())
		printCosting(w, g0, "initial")
		printCosting(w, res.Best, "optimized")
	}
}

func printCosting(w io.Writer, g *workflow.Graph, label string) {
	c, err := cost.Evaluate(g, cost.RowModel{})
	if err != nil {
		return
	}
	fmt.Fprintf(w, "\n%s per-activity costs:\n", label)
	order, err := g.TopoSort()
	if err != nil {
		return
	}
	for _, id := range order {
		n := g.Node(id)
		if n.Kind != workflow.KindActivity {
			continue
		}
		fmt.Fprintf(w, "  %3d %-35s cost %12.1f  out-rows %12.1f\n",
			id, n.Label(), c.Cost(id), c.Card(id))
	}
}
