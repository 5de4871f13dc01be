// Command etlvet is the static-analysis front end for the ETL optimizer.
// It runs the three kinds of passes of internal/analysis:
//
//	etlvet workflow <file.etl>...   audit workflow definitions (schema
//	                                dataflow, design checks, abstract
//	                                interpretation over cardinality,
//	                                nullability and provenance domains)
//	etlvet trace <trace.json>...    re-verify recorded optimization runs
//	                                (guards, signatures, costs)
//	etlvet src <packages>...        lint Go sources for determinism
//	                                hazards
//	etlvet obs <run.jsonl>...       render a run report from a -journal
//	                                flight recording (phase timeline, top-k
//	                                slow nodes, selectivity drift, drop
//	                                accounting) and audit its integrity,
//	                                the trailer's metrics snapshot included;
//	                                with -format trace, write one journal's
//	                                spans as trace-event JSON, with -format
//	                                snapshot its metrics snapshot as JSON
//	etlvet passes                   list every pass
//
// Every subcommand reports its findings as text or, with -format json, as
// JSON; obs also takes -format trace and -format snapshot.
//
// Exit status: 0 when clean (advice-only counts as clean), 1 when there is
// at least one warning, 2 on usage or input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"etlopt/internal/analysis"
	"etlopt/internal/dsl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  etlvet workflow [flags] <file.etl>...   audit workflow definitions
  etlvet trace    [flags] <trace.json>... re-verify recorded optimization runs
  etlvet src      [flags] <packages>...   lint Go sources for determinism
                                          hazards
  etlvet obs      [flags] <run.jsonl>...  render a run report from a -journal
                                          flight recording and audit its
                                          integrity
  etlvet obs -format trace <run.jsonl>    write the journal's spans as
                                          Chrome/Perfetto trace-event JSON;
                                          findings go to stderr
  etlvet obs -format snapshot <run.jsonl> write the metrics snapshot the
                                          journal's trailer carries as JSON;
                                          findings go to stderr
  etlvet passes   [flags]                 list the passes

flags:
  -format FORM      output format: text (default) or json; obs also takes
                    trace and snapshot
  -card-bound N     (workflow only) flag nodes whose estimated cardinality
                    exceeds N x the total source rows (default 10)
  -top N            (obs only) rows shown in the slow-node and drift
                    tables (default 5; 0 = all)

exit status:
  0  clean — no warnings (advice alone never fails)
  1  at least one warning
  2  usage error or unreadable input`)
}

// options are the flags of one subcommand.
type options struct {
	format    string
	cardBound float64
	topK      int
}

func (o *options) bind(fs *flag.FlagSet, cmd string) {
	formats := "text or json"
	if cmd == "obs" {
		formats = "text, json, trace (one journal's spans as trace-event JSON) or snapshot (its trailer's metrics snapshot as JSON)"
	}
	fs.StringVar(&o.format, "format", "text", "output format: "+formats)
	if cmd == "workflow" {
		fs.Float64Var(&o.cardBound, "card-bound", analysis.DefaultWorkflowOptions().CardinalityBound,
			"cardinality-blowup threshold as a multiple of total source rows")
	}
	if cmd == "obs" {
		fs.IntVar(&o.topK, "top", 5, "rows shown in the slow-node and drift tables (0 = all)")
	}
}

// journalView reports whether the format is one of obs's single-journal
// views, which own stdout.
func (o *options) journalView() bool { return o.format == "trace" || o.format == "snapshot" }

func (o *options) validate(cmd string) error {
	switch {
	case o.format == "text", o.format == "json":
	case o.journalView() && cmd == "obs":
	case o.journalView():
		return fmt.Errorf("-format %s applies to etlvet obs only", o.format)
	default:
		return fmt.Errorf("unknown -format %q (want text or json; obs also takes trace and snapshot)", o.format)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	case "workflow", "trace", "src", "obs", "passes":
	default:
		usage(stderr)
		return 2
	}

	var o options
	fs := flag.NewFlagSet("etlvet "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.bind(fs, cmd)
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	if err := o.validate(cmd); err != nil {
		fmt.Fprintf(stderr, "etlvet: %v\n", err)
		return 2
	}
	rest = fs.Args()

	if cmd == "passes" {
		return runPasses(&o, stdout, stderr)
	}
	switch cmd {
	case "workflow", "trace", "obs":
		if len(rest) == 0 {
			usage(stderr)
			return 2
		}
	case "src":
		if len(rest) == 0 {
			rest = []string{"./..."}
		}
	}

	var findings []analysis.Finding
	collect := func(arg string, fn func(string) ([]analysis.Finding, error)) bool {
		fs, err := fn(arg)
		if err != nil {
			fmt.Fprintf(stderr, "etlvet: %s: %v\n", arg, err)
			return false
		}
		findings = append(findings, fs...)
		return true
	}
	switch cmd {
	case "workflow":
		opts := analysis.DefaultWorkflowOptions()
		opts.CardinalityBound = o.cardBound
		for _, arg := range rest {
			if !collect(arg, func(path string) ([]analysis.Finding, error) {
				return auditWorkflowFile(path, opts)
			}) {
				return 2
			}
		}
	case "trace":
		for _, arg := range rest {
			if !collect(arg, auditTraceFile) {
				return 2
			}
		}
	case "src":
		for _, arg := range rest {
			if !collect(arg, func(pat string) ([]analysis.Finding, error) {
				return analysis.AnalyzeSource([]string{pat})
			}) {
				return 2
			}
		}
	case "obs":
		// The report, the trace or the snapshot is the product here,
		// written as each journal is read; only integrity problems flow
		// through the finding layer, to stderr under -format trace
		// and snapshot, whose stdout is that one view alone.
		if o.journalView() && len(rest) != 1 {
			fmt.Fprintf(stderr, "etlvet: obs -format %s takes exactly one journal\n", o.format)
			return 2
		}
		for _, arg := range rest {
			if !collect(arg, func(path string) ([]analysis.Finding, error) {
				return renderObs(stdout, path, &o)
			}) {
				return 2
			}
		}
		if o.journalView() {
			stdout = stderr
		}
	}

	return report(&o, findings, stdout, stderr)
}

// report renders the findings in the chosen format, returning the process
// exit code.
func report(o *options, findings []analysis.Finding, stdout, stderr io.Writer) int {
	switch o.format {
	case "json":
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "etlvet: %v\n", err)
			return 2
		}
	default:
		if len(findings) == 0 {
			fmt.Fprintln(stdout, "no findings")
		}
		for _, f := range findings {
			prefix := f.File
			if prefix == "" {
				prefix = "<none>"
			}
			fmt.Fprintf(stdout, "%s: %s\n", prefix, f.String())
		}
	}
	if w := analysis.CountWarnings(findings); w > 0 {
		fmt.Fprintf(stderr, "etlvet: %d warning(s)\n", w)
		return 1
	}
	return 0
}

// jsonFinding is the -format json shape of one finding.
type jsonFinding struct {
	Severity string `json:"severity"`
	Check    string `json:"check"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Where    string `json:"where,omitempty"`
	Message  string `json:"message"`
	Fix      string `json:"fix,omitempty"`
}

func writeJSON(w io.Writer, findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Severity: f.Severity.String(), Check: f.Check,
			File: f.File, Line: f.Line, Col: f.Col,
			Where: f.Where, Message: f.Message, Fix: f.Fix,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(out)
}

// runPasses lists the pass table in the chosen format.
func runPasses(o *options, stdout, stderr io.Writer) int {
	switch o.format {
	case "json":
		type jsonPass struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
			Doc  string `json:"doc"`
		}
		var out []jsonPass
		for _, p := range analysis.AllPasses() {
			out = append(out, jsonPass{p.Kind(), p.Name, p.Doc})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "etlvet: %v\n", err)
			return 2
		}
	default:
		for _, p := range analysis.AllPasses() {
			fmt.Fprintf(stdout, "%-8s %-22s %s\n", p.Kind(), p.Name, p.Doc)
		}
	}
	return 0
}

func auditWorkflowFile(path string, opts *analysis.WorkflowOptions) ([]analysis.Finding, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := dsl.Parse(string(src))
	if err != nil {
		return nil, err
	}
	fs, err := analysis.CheckWorkflowOpts(g, opts)
	if err != nil {
		return nil, err
	}
	// Render graph locations with their DSL names rather than raw IDs,
	// and anchor every finding to the audited file.
	names := dsl.NodeNames(g)
	for i := range fs {
		if name, ok := names[fs[i].Node]; fs[i].Node >= 0 && ok {
			fs[i].Node, fs[i].Where = -1, name
		}
		if fs[i].File == "" {
			fs[i].File = path
		}
	}
	return fs, nil
}

func auditTraceFile(path string) ([]analysis.Finding, error) {
	t, err := analysis.ReadTraceFile(path)
	if err != nil {
		return nil, err
	}
	fs, err := analysis.AuditTrace(t)
	if err != nil {
		return nil, err
	}
	for i := range fs {
		if fs[i].File == "" {
			fs[i].File = path
		}
	}
	return fs, nil
}
