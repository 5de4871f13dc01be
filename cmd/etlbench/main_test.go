package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/clidoc"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "etlbench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building etlbench: %v\n%s", err, out)
	}
	return bin
}

func TestCLIPaperEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)

	out, err := exec.Command(bin, "-counts", "1,0,0", "-esbudget", "400", "-hsbudget", "400", "-quiet").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"Table 1: quality of solution",
		"Table 2: execution time, number of visited states",
		"§4.2 claims:",
		"\nsmall ",
		"exec s",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("evaluation output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "exec P=") {
		t.Errorf("Table 2 still carries a per-partition exec column:\n%s", out)
	}

	out, err = exec.Command(bin, "-fig4").CombinedOutput()
	if err != nil {
		t.Fatalf("-fig4: %v\n%s", err, out)
	}
	for _, want := range []string{"= 56 (paper: 56)", "= 32 (paper: 32)", "= 24 (paper: 24)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-fig4 output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIRemovedFlags pins that the flags of the retired baseline stack,
// the live status server and the trace export are rejected as unknown:
// usage on stderr, exit status 2.
func TestCLIRemovedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	for _, args := range [][]string{
		{"-engine", "x"},
		{"-shared", "x"},
		{"-expand", "x"},
		{"-compare", "x", "y"},
		{"-tolerance", "0.2"},
		{"-datarows", "100"},
		{"-faults", "42:0.05"},
		{"-suitesize", "3"},
		{"-partitions", "1,2"},
		{"-debug-addr", "localhost:0"},
		{"-trace-out", "trace.json"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "Usage of") {
			t.Errorf("%v: no usage printed:\n%s", args, out)
		}
	}
}

// TestREADMEFlagsExist: every -flag README.md passes to etlbench is a flag
// `etlbench -h` lists.
func TestREADMEFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	clidoc.Check(t, "../../README.md", "etlbench", func([]string) []byte {
		out, _ := exec.Command(bin, "-h").CombinedOutput()
		return out
	})
}
