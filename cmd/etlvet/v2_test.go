package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/analysis"
)

// runCLI invokes the command in-process and returns stdout, stderr and
// the exit code.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func decodeFindings(t *testing.T, raw string) []jsonFinding {
	t.Helper()
	var fs []jsonFinding
	if err := json.Unmarshal([]byte(raw), &fs); err != nil {
		t.Fatalf("bad -format json output: %v\n%s", err, raw)
	}
	return fs
}

// TestDiagnosticsFixtures: every abstract-interpretation diagnostic has
// a committed example workflow that triggers it exactly once.
func TestDiagnosticsFixtures(t *testing.T) {
	for fixture, check := range map[string]string{
		"dead-filter.etl":         "dead-filter",
		"unsatisfiable-guard.etl": "unsatisfiable-guard",
		"broken-provenance.etl":   "broken-provenance",
		"cardinality-blowup.etl":  "cardinality-blowup",
	} {
		path := filepath.Join("../../examples/workflows/diagnostics", fixture)
		out, _, code := runCLI(t, "workflow", "-format", "json", path)
		if check == "dead-filter" {
			if code != 0 {
				t.Errorf("%s: advice-only audit should exit 0, got %d", fixture, code)
			}
		} else if code != 1 {
			t.Errorf("%s: warning audit should exit 1, got %d", fixture, code)
		}
		n := 0
		for _, f := range decodeFindings(t, out) {
			if f.Check == check {
				n++
				if f.File != path {
					t.Errorf("%s: finding not anchored to the audited file: %q", fixture, f.File)
				}
			}
		}
		if n != 1 {
			t.Errorf("%s: want exactly one %s finding, got %d\n%s", fixture, check, n, out)
		}
	}
}

// TestCardBoundFlag: raising -card-bound past the fixture's blowup
// silences the finding.
func TestCardBoundFlag(t *testing.T) {
	path := "../../examples/workflows/diagnostics/cardinality-blowup.etl"
	out, _, code := runCLI(t, "workflow", "-card-bound", "100", "-format", "json", path)
	if code != 0 {
		t.Errorf("bound 100 should silence the blowup, exit %d", code)
	}
	for _, f := range decodeFindings(t, out) {
		if f.Check == "cardinality-blowup" {
			t.Errorf("finding survived the raised bound: %+v", f)
		}
	}
}

// TestSARIFOutput: the CLI's -format sarif emits a 2.1.0 log whose
// results carry the audited file as the artifact.
func TestSARIFOutput(t *testing.T) {
	path := "../../examples/workflows/diagnostics/unsatisfiable-guard.etl"
	out, _, code := runCLI(t, "workflow", "-format", "sarif", path)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q runs %d", log.Version, len(log.Runs))
	}
	found := false
	for _, r := range log.Runs[0].Results {
		if r.RuleID == "unsatisfiable-guard" {
			found = true
			if len(r.Locations) == 0 || r.Locations[0].PhysicalLocation.ArtifactLocation.URI != path {
				t.Errorf("result lacks the audited file artifact: %+v", r)
			}
		}
	}
	if !found {
		t.Error("unsatisfiable-guard missing from SARIF results")
	}
}

// TestBaselineGate: -write-baseline acknowledges today's findings, and
// the same audit against that baseline exits 0; a different workflow's
// findings still fail.
func TestBaselineGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, ".etlvetbase")
	path := "../../examples/workflows/diagnostics/unsatisfiable-guard.etl"

	if _, _, code := runCLI(t, "workflow", "-baseline", base, "-write-baseline", path); code != 0 {
		t.Fatalf("-write-baseline exit %d", code)
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "unsatisfiable-guard") {
		t.Fatalf("baseline lacks the acknowledged finding:\n%s", raw)
	}
	out, _, code := runCLI(t, "workflow", "-baseline", base, path)
	if code != 0 {
		t.Errorf("baselined audit should exit 0, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "no findings") {
		t.Errorf("suppressed audit should report clean:\n%s", out)
	}
	// A workflow with a different (un-acknowledged) warning still fails.
	other := "../../examples/workflows/diagnostics/broken-provenance.etl"
	if _, _, code := runCLI(t, "workflow", "-baseline", base, other); code != 1 {
		t.Errorf("new finding should survive the baseline, exit %d", code)
	}
	// Missing baseline file is a usage error, not a silent pass.
	if _, _, code := runCLI(t, "workflow", "-baseline", filepath.Join(dir, "nope"), path); code != 2 {
		t.Errorf("missing baseline should exit 2, got %d", code)
	}
}

// TestFlagValidation: bad -format and bare -write-baseline are usage
// errors; -json is shorthand for -format json; help exits 0 and
// documents the exit contract.
func TestFlagValidation(t *testing.T) {
	if _, _, code := runCLI(t, "src", "-format", "xml", "./."); code != 2 {
		t.Errorf("bad format exit %d, want 2", code)
	}
	if _, _, code := runCLI(t, "src", "-write-baseline", "./."); code != 2 {
		t.Errorf("bare -write-baseline exit %d, want 2", code)
	}
	out, _, code := runCLI(t, "passes", "-json")
	if code != 0 {
		t.Fatalf("passes -json exit %d", code)
	}
	var ps []struct{ Kind, Name, Doc string }
	if err := json.Unmarshal([]byte(out), &ps); err != nil {
		t.Fatalf("passes -json invalid: %v", err)
	}
	if len(ps) != len(analysis.AllPasses()) {
		t.Errorf("passes -json lists %d passes, the table holds %d", len(ps), len(analysis.AllPasses()))
	}
	help, _, code := runCLI(t, "-h")
	if code != 0 {
		t.Errorf("-h exit %d, want 0", code)
	}
	for _, want := range []string{"exit status", "0  clean", "1  at least one warning", "2  usage error"} {
		if !strings.Contains(help, want) {
			t.Errorf("help missing %q", want)
		}
	}
}
