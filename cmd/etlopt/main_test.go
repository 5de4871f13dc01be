package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/clidoc"
	"etlopt/internal/dsl"
	"etlopt/internal/templates"
)

// buildTool compiles this command into a temp dir once per test run.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "etlopt")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building etlopt: %v\n%s", err, out)
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

func TestCLIOptimizeFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	in := writeFig1(t)
	out := filepath.Join(t.TempDir(), "opt.etl")

	for _, algo := range []string{"es", "hs", "greedy"} {
		cmd := exec.Command(bin, "-in", in, "-algo", algo, "-maxstates", "20000", "-out", out)
		stdout, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", algo, err, stdout)
		}
		text := string(stdout)
		for _, want := range []string{"initial cost:", "optimized cost:", "improvement:", "visited states:"} {
			if !strings.Contains(text, want) {
				t.Errorf("%s output missing %q:\n%s", algo, want, text)
			}
		}
		// The optimized file must parse and be equivalent-checkable.
		optText, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dsl.Parse(string(optText)); err != nil {
			t.Errorf("%s: optimized output does not parse: %v", algo, err)
		}
	}
}

func TestCLIVerboseAndErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	in := writeFig1(t)

	out, err := exec.Command(bin, "-in", in, "-algo", "hs", "-verbose").CombinedOutput()
	if err != nil {
		t.Fatalf("verbose run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "per-activity costs") {
		t.Errorf("verbose output missing costing detail:\n%s", out)
	}

	// Unknown algorithm and missing input must fail with nonzero status.
	if err := exec.Command(bin, "-in", in, "-algo", "magic").Run(); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if err := exec.Command(bin, "-in", "/nonexistent.etl").Run(); err == nil {
		t.Error("missing input file should fail")
	}
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("missing -in should fail")
	}
}

func TestCLIStdin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	text, err := dsl.Serialize(templates.Fig1Workflow())
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-in", "-", "-algo", "greedy")
	cmd.Stdin = strings.NewReader(text)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("stdin run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "HS-Greedy") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestREADMEFlagsExist: every -flag README.md passes to etlopt is a flag
// `etlopt -h` lists.
func TestREADMEFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	clidoc.Check(t, "../../README.md", "etlopt", func([]string) []byte {
		out, _ := exec.Command(bin, "-h").CombinedOutput()
		return out
	})
}
