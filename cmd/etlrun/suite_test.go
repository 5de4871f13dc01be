package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/generator"
)

// setupSharedSuite writes n shared-prefix workflow files plus per-workflow
// data subdirectories under dir, following etlgen's layout. Returns the
// workflow file paths and the data root.
func setupSharedSuite(t *testing.T, dir string, n int) ([]string, string) {
	t.Helper()
	scs, err := generator.SharedSuite(generator.Small, n, 321)
	if err != nil {
		t.Fatal(err)
	}
	dataRoot := filepath.Join(dir, "data")
	files := make([]string, n)
	for i, sc := range scs {
		text, err := dsl.Serialize(sc.Graph)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("shared-%02d", i+1)
		files[i] = filepath.Join(dir, name+".etl")
		if err := os.WriteFile(files[i], []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		sub := filepath.Join(dataRoot, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		writeRows := func(bindings map[string]data.Rows) {
			for bname, rows := range bindings {
				rs, err := data.NewFileRecordset(bname, sc.Schemas[bname], filepath.Join(sub, bname+".csv"))
				if err != nil {
					t.Fatal(err)
				}
				if err := rs.Load(rows); err != nil {
					t.Fatal(err)
				}
			}
		}
		writeRows(sc.Sources)
		writeRows(sc.Lookups)
	}
	return files, dataRoot
}

// TestCLISuiteMatchesSoloRuns runs two shared-prefix workflows through
// suite mode and each one individually, and requires the target CSVs to be
// byte-identical.
func TestCLISuiteMatchesSoloRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	suiteDir := t.TempDir()
	soloDir := t.TempDir()
	files, dataRoot := setupSharedSuite(t, suiteDir, 2)
	soloFiles, soloData := setupSharedSuite(t, soloDir, 2)

	args := append([]string{"-data", dataRoot, "-shared-cache", "1048576", "-suite-workers", "2"}, files...)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("suite run: %v\n%s", err, out)
	}
	for _, want := range []string{"suite: 2 workflows", "shared stages", "recomputation saved"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("suite output missing %q:\n%s", want, out)
		}
	}

	for i, wf := range soloFiles {
		sub := filepath.Join(soloData, fmt.Sprintf("shared-%02d", i+1))
		if out, err := exec.Command(bin, "-in", wf, "-data", sub).CombinedOutput(); err != nil {
			t.Fatalf("solo run %d: %v\n%s", i, err, out)
		}
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("shared-%02d", i)
		suiteCSV, err := os.ReadFile(filepath.Join(dataRoot, name, "DW.FACT.csv"))
		if err != nil {
			t.Fatal(err)
		}
		soloCSV, err := os.ReadFile(filepath.Join(soloData, name, "DW.FACT.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if string(suiteCSV) != string(soloCSV) {
			t.Errorf("workflow %s: suite-mode target CSV differs from solo run", name)
		}
	}
}

// TestCLISuiteRejectsSingleRunFlags covers the guard keeping suite mode
// execution-only.
func TestCLISuiteRejectsSingleRunFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	out, err := exec.Command(bin, "-data", dir, "-checkpoint", filepath.Join(dir, "stage"), wf, wf).CombinedOutput()
	if err == nil {
		t.Fatalf("suite run with -checkpoint succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "-checkpoint applies to single-workflow runs") {
		t.Errorf("unexpected error output:\n%s", out)
	}
	// With two offending flags the guard names the first in its fixed
	// order, every time: it once ranged over a map.
	for i := 0; i < 8; i++ {
		out, err := exec.Command(bin, "-optimize", "hs", "-checkpoint", filepath.Join(dir, "stage"), wf, wf).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-optimize applies to single-workflow runs") {
			t.Fatalf("run %d: want the error to name -optimize, got %v:\n%s", i, err, out)
		}
	}
}

// TestCLISuiteTargetCollision covers the duplicate-target guard: two
// workflows writing the same CSV path must be rejected before any engine
// runs.
func TestCLISuiteTargetCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf1 := setupFig1(t, dir)
	text, err := os.ReadFile(wf1)
	if err != nil {
		t.Fatal(err)
	}
	wf2 := filepath.Join(dir, "fig1-copy.etl")
	if err := os.WriteFile(wf2, text, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-data", dir, wf1, wf2).CombinedOutput()
	if err == nil {
		t.Fatalf("colliding suite succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "both write") {
		t.Errorf("unexpected error output:\n%s", out)
	}
}
