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
//	etlvet metrics <snap.json> [series]...
//	                                validate a -metrics snapshot: internal
//	                                consistency plus presence of every
//	                                named series
//	etlvet obs <run.jsonl>...       render a run report from a -journal
//	                                flight recording (phase timeline, top-k
//	                                slow nodes, selectivity drift, cache hit
//	                                rates, drop accounting) and audit its
//	                                integrity; with -format trace, write
//	                                one journal's spans as trace-event JSON
//	etlvet passes                   list every pass
//
// Every subcommand shares one reporting surface: -format {text,json,sarif}
// (-json is shorthand for -format json; obs also takes -format trace),
// -baseline FILE to suppress
// findings acknowledged in a committed baseline, and -write-baseline to
// regenerate that file from the current findings.
//
// Exit status: 0 when clean (advice-only counts as clean), 1 when any
// warning survives the baseline, 2 on usage or input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"etlopt/internal/analysis"
	"etlopt/internal/dsl"
	"etlopt/internal/obs"
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
  etlvet metrics  [flags] <snap.json> [series]...
                                          validate a -metrics snapshot and
                                          require series
  etlvet obs      [flags] <run.jsonl>...  render a run report from a -journal
                                          flight recording and audit its
                                          integrity
  etlvet obs -format trace <run.jsonl>    write the journal's spans as
                                          Chrome/Perfetto trace-event JSON;
                                          findings go to stderr
  etlvet passes   [flags]                 list the passes

flags (shared by every subcommand):
  -format FORM      output format: text (default), json, or sarif (2.1.0);
                    obs also takes trace
  -json             shorthand for -format json
  -baseline FILE    suppress findings acknowledged in FILE; only NEW
                    findings are reported and counted
  -write-baseline   rewrite -baseline FILE from the current findings
                    instead of reporting them
  -card-bound N     (workflow only) flag nodes whose estimated cardinality
                    exceeds N x the total source rows (default 10)
  -top N            (obs only) rows shown in the slow-node and drift
                    tables (default 5; 0 = all)

exit status:
  0  clean — no warnings (advice alone never fails)
  1  at least one warning survived the baseline
  2  usage error or unreadable input`)
}

// options are the reporting flags shared by every subcommand.
type options struct {
	format        string
	jsonShorthand bool
	baselinePath  string
	writeBaseline bool
	cardBound     float64
	topK          int
}

func (o *options) bind(fs *flag.FlagSet, cmd string) {
	formats := "text, json or sarif"
	if cmd == "obs" {
		formats = "text, json, sarif or trace (one journal's spans as trace-event JSON)"
	}
	fs.StringVar(&o.format, "format", "text", "output format: "+formats)
	fs.BoolVar(&o.jsonShorthand, "json", false, "shorthand for -format json")
	fs.StringVar(&o.baselinePath, "baseline", "", "baseline file of acknowledged findings")
	fs.BoolVar(&o.writeBaseline, "write-baseline", false, "rewrite the -baseline file from current findings")
	if cmd == "workflow" {
		fs.Float64Var(&o.cardBound, "card-bound", analysis.DefaultWorkflowOptions().CardinalityBound,
			"cardinality-blowup threshold as a multiple of total source rows")
	}
	if cmd == "obs" {
		fs.IntVar(&o.topK, "top", 5, "rows shown in the slow-node and drift tables (0 = all)")
	}
}

func (o *options) validate(cmd string) error {
	if o.jsonShorthand {
		o.format = "json"
	}
	switch {
	case o.format == "text", o.format == "json", o.format == "sarif":
	case o.format == "trace" && cmd == "obs":
	case o.format == "trace":
		return fmt.Errorf("-format trace applies to etlvet obs only")
	default:
		return fmt.Errorf("unknown -format %q (want text, json or sarif; obs also takes trace)", o.format)
	}
	if o.writeBaseline && o.baselinePath == "" {
		return fmt.Errorf("-write-baseline needs -baseline FILE")
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
	case "workflow", "trace", "src", "metrics", "obs", "passes":
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
	case "workflow", "trace", "metrics", "obs":
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
	case "metrics":
		if !collect(rest[0], func(path string) ([]analysis.Finding, error) {
			return auditMetricsFile(path, rest[1:])
		}) {
			return 2
		}
	case "obs":
		// The report or the trace is the product here, written as each
		// journal is read; only integrity problems flow through the
		// finding/baseline layer, to stderr under -format trace, whose
		// stdout is the trace alone.
		if o.format == "trace" && len(rest) != 1 {
			fmt.Fprintln(stderr, "etlvet: obs -format trace takes exactly one journal")
			return 2
		}
		for _, arg := range rest {
			if !collect(arg, func(path string) ([]analysis.Finding, error) {
				return renderObs(stdout, path, &o)
			}) {
				return 2
			}
		}
		if o.format == "trace" {
			stdout = stderr
		}
	}

	return report(&o, findings, stdout, stderr)
}

// report applies the baseline and renders the surviving findings in the
// chosen format, returning the process exit code.
func report(o *options, findings []analysis.Finding, stdout, stderr io.Writer) int {
	if o.writeBaseline {
		f, err := os.Create(o.baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "etlvet: %v\n", err)
			return 2
		}
		werr := analysis.WriteBaseline(f, findings)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "etlvet: writing baseline: %v\n", werr)
			return 2
		}
		fmt.Fprintf(stderr, "etlvet: baseline %s rewritten with %d finding(s)\n", o.baselinePath, len(findings))
		return 0
	}
	if o.baselinePath != "" {
		f, err := os.Open(o.baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "etlvet: %v (create it with -write-baseline)\n", err)
			return 2
		}
		base, err := analysis.ReadBaseline(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "etlvet: %s: %v\n", o.baselinePath, err)
			return 2
		}
		suppressed := len(findings)
		findings = base.Filter(findings)
		suppressed -= len(findings)
		if suppressed > 0 && o.format == "text" {
			fmt.Fprintf(stderr, "etlvet: %d baselined finding(s) suppressed\n", suppressed)
		}
	}

	switch o.format {
	case "json":
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "etlvet: %v\n", err)
			return 2
		}
	case "sarif":
		if err := analysis.WriteSARIF(stdout, findings); err != nil {
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

// runPasses lists the pass table in the chosen format. SARIF output is
// the rule table with zero results — a machine-readable pass inventory.
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
	case "sarif":
		if err := analysis.WriteSARIF(stdout, nil); err != nil {
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

// auditMetricsFile validates a -metrics JSON snapshot: it must parse,
// every instrument must be internally consistent (non-negative counters
// and histogram counts, bucket counts summing to the histogram count,
// finite gauge values), and every series named on the command line must
// be present. Problems come back as warning findings so the shared
// report layer handles formats, baselines and exit codes.
func auditMetricsFile(path string, required []string) ([]analysis.Finding, error) {
	snap, err := obs.ReadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	var out []analysis.Finding
	report := func(format string, args ...interface{}) {
		out = append(out, analysis.Finding{
			Severity: analysis.Warning, Check: "metrics", Node: -1,
			File: path, Message: fmt.Sprintf(format, args...),
		})
	}
	for _, c := range snap.Counters {
		if c.Value < 0 {
			report("counter %s is negative (%d)", c.Series, c.Value)
		}
	}
	for _, g := range snap.Gauges {
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			report("gauge %s is not finite (%v)", g.Series, g.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Count < 0 {
			report("histogram %s has negative count (%d)", h.Series, h.Count)
			continue
		}
		if len(h.BucketCounts) != len(h.Bounds)+1 {
			report("histogram %s has %d bucket counts for %d bounds (want bounds+1)",
				h.Series, len(h.BucketCounts), len(h.Bounds))
			continue
		}
		var sum int64
		for _, n := range h.BucketCounts {
			if n < 0 {
				report("histogram %s has a negative bucket count (%d)", h.Series, n)
			}
			sum += n
		}
		if sum != h.Count {
			report("histogram %s bucket counts sum to %d, count is %d", h.Series, sum, h.Count)
		}
	}
	for _, series := range required {
		if !snap.Has(series) {
			report("required series %s is missing", series)
		}
	}
	return out, nil
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
	// and anchor every finding to the audited file for SARIF/baselines.
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
