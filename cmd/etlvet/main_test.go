package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/clidoc"
	"etlopt/internal/dsl"
	"etlopt/internal/templates"
)

// buildTool compiles this command into a temp dir once per test.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "etlvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building etlvet: %v\n%s", err, out)
	}
	return bin
}

func writeFig1(t *testing.T) string {
	t.Helper()
	text, err := dsl.Serialize(templates.Fig1Workflow())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.etl")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)

	// Fig. 1 audits without warnings (advice only): exit 0.
	out, err := exec.Command(bin, "workflow", writeFig1(t)).CombinedOutput()
	if err != nil {
		t.Errorf("fig1 audit should exit 0: %v\n%s", err, out)
	}

	// An unguarded surrogate key: exit 1 with the located finding.
	bad := filepath.Join(t.TempDir(), "bad.etl")
	src := `
recordset S source rows=100 schema=K,V
recordset T target schema=V,SK
activity sk sk key=K out=SK lookup=L sel=1
flow S -> sk -> T
`
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, "workflow", bad).CombinedOutput()
	if err == nil {
		t.Errorf("warning audit should exit nonzero:\n%s", out)
	}
	if !strings.Contains(string(out), "unguarded-surrogate-key") || !strings.Contains(string(out), "a3") {
		t.Errorf("missing located finding:\n%s", out)
	}
}

func TestCLITraceAndSrc(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	opt := filepath.Join(dir, "etlopt")
	if out, err := exec.Command("go", "build", "-o", opt, "../etlopt").CombinedOutput(); err != nil {
		t.Fatalf("building etlopt: %v\n%s", err, out)
	}

	// Produce a trace of a full HS run and certify it.
	trace := filepath.Join(dir, "fig1.json")
	if out, err := exec.Command(opt, "-in", writeFig1(t), "-algo", "hs", "-trace", trace).CombinedOutput(); err != nil {
		t.Fatalf("etlopt -trace: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "trace", trace).CombinedOutput()
	if err != nil {
		t.Errorf("certified trace should exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "no findings") {
		t.Errorf("expected clean audit:\n%s", out)
	}

	// Corrupt one recorded cost: the audit must locate it and exit 1.
	var doc map[string]any
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	steps := doc["steps"].([]any)
	steps[0].(map[string]any)["cost"] = 1.0
	raw, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	badTrace := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badTrace, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, "trace", badTrace).CombinedOutput()
	if err == nil {
		t.Errorf("corrupted trace should exit nonzero:\n%s", out)
	}
	if !strings.Contains(string(out), "trace-cost") || !strings.Contains(string(out), "step 0") {
		t.Errorf("missing located trace-cost finding:\n%s", out)
	}

	// The determinism linter over the optimizer's own sources: clean.
	out, err = exec.Command(bin, "src", "../../internal/...").CombinedOutput()
	if err != nil {
		t.Errorf("src lint should be clean: %v\n%s", err, out)
	}
}

func TestCLIUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	if out, err := exec.Command(bin).CombinedOutput(); err == nil {
		t.Errorf("no arguments should exit nonzero:\n%s", out)
	}
	out, err := exec.Command(bin, "passes").CombinedOutput()
	if err != nil {
		t.Fatalf("passes: %v\n%s", err, out)
	}
	for _, want := range []string{"map-iteration", "trace-guard", "unresolved-reference"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("passes output missing %q:\n%s", want, out)
		}
	}
}

// TestREADMEFlagsExist: every -flag README.md passes to an etlvet
// subcommand is a flag `etlvet <subcommand> -h` lists.
func TestREADMEFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	clidoc.Check(t, "../../README.md", "etlvet", func(args []string) []byte {
		out, _ := exec.Command(bin, args[0], "-h").CombinedOutput()
		return out
	})
}
