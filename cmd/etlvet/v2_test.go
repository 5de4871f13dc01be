package main

import (
	"bytes"
	"encoding/json"
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

// TestFlagValidation: a bad -format is a usage error; -format json renders
// src findings and the pass table as JSON; help exits 0 and documents the
// exit contract.
func TestFlagValidation(t *testing.T) {
	if _, _, code := runCLI(t, "src", "-format", "xml", "./."); code != 2 {
		t.Errorf("bad format exit %d, want 2", code)
	}
	out, _, code := runCLI(t, "src", "-format", "json", "./.")
	if code != 0 {
		t.Errorf("src -format json exit %d, want 0", code)
	}
	if fs := decodeFindings(t, out); len(fs) != 0 {
		t.Errorf("src -format json reports %d findings on a clean package: %+v", len(fs), fs)
	}
	out, _, code = runCLI(t, "passes", "-format", "json")
	if code != 0 {
		t.Fatalf("passes -format json exit %d", code)
	}
	var ps []struct{ Kind, Name, Doc string }
	if err := json.Unmarshal([]byte(out), &ps); err != nil {
		t.Fatalf("passes -format json invalid: %v", err)
	}
	if len(ps) != len(analysis.AllPasses()) {
		t.Errorf("passes -format json lists %d passes, the table holds %d", len(ps), len(analysis.AllPasses()))
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

// TestCLIRemovedFlags pins that the flags and the format of the retired
// reporting layer (the -json shorthand, the finding baseline and SARIF) are
// rejected: exit status 2, naming the flag or value.
func TestCLIRemovedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		name string
	}{
		{[]string{"passes", "-json"}, "-json"},
		{[]string{"src", "-baseline", "X", "./."}, "-baseline"},
		{[]string{"src", "-write-baseline", "./."}, "-write-baseline"},
		{[]string{"workflow", "-format", "sarif", writeFig1(t)}, "sarif"},
	} {
		out, errb, code := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if out != "" {
			t.Errorf("%v: wrote to stdout:\n%s", tc.args, out)
		}
		if !strings.Contains(errb, tc.name) {
			t.Errorf("%v: stderr does not name %s:\n%s", tc.args, tc.name, errb)
		}
	}
}
