package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
// byte-identical: with a budget that holds the shared stages, and with
// none, where every stage is spilled and, one run at a time, each reader
// loads it back, as the summary counts.
func TestCLISuiteMatchesSoloRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	soloFiles, soloData := setupSharedSuite(t, t.TempDir(), 2)
	for i, wf := range soloFiles {
		sub := filepath.Join(soloData, fmt.Sprintf("shared-%02d", i+1))
		if out, err := exec.Command(bin, "-in", wf, "-data", sub).CombinedOutput(); err != nil {
			t.Fatalf("solo run %d: %v\n%s", i, err, out)
		}
	}
	for _, c := range []struct {
		cache, workers string
		spill          *regexp.Regexp
	}{
		{"1048576", "2", regexp.MustCompile(`\n  spill: 0 loads, 0 failed writes\n`)},
		{"0", "1", regexp.MustCompile(`\n  spill: [1-9][0-9]* loads, 0 failed writes\n`)},
	} {
		files, dataRoot := setupSharedSuite(t, t.TempDir(), 2)
		args := append([]string{"-data", dataRoot, "-shared-cache", c.cache, "-suite-workers", c.workers}, files...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("suite run at -shared-cache %s: %v\n%s", c.cache, err, out)
		}
		for _, want := range []string{"suite: 2 workflows", "shared stages", "recomputation saved"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("-shared-cache %s: suite output missing %q:\n%s", c.cache, want, out)
			}
		}
		if !c.spill.Match(out) {
			t.Errorf("-shared-cache %s: suite output has no line matching %q:\n%s", c.cache, c.spill, out)
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
				t.Errorf("-shared-cache %s: workflow %s: suite-mode target CSV differs from solo run", c.cache, name)
			}
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

// TestCLIRefusesFlagsItsModeIgnores: a single-workflow run refuses each
// suite flag set on its command line, and a suite refuses -workers, which
// only -optimize reads. A flag whose companion is not set is refused too:
// -workers without -optimize, -retries without -faults, -shared-spill with
// an unbounded -shared-cache. Each refusal exits non-zero naming the flag
// (and its companion) before a journal, a profile, a spill directory or a
// target file exists. A suite honours -cpuprofile.
func TestCLIRefusesFlagsItsModeIgnores(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	before := dirContents(t, dir)
	out := t.TempDir()
	journal, profile, spill := filepath.Join(out, "run.jsonl"), filepath.Join(out, "cpu.pprof"), filepath.Join(out, "spill")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", wf, "-suite-workers", "3"}, "-suite-workers applies to suites, not single-workflow runs"},
		{[]string{"-in", wf, "-shared-cache", "0"}, "-shared-cache applies to suites, not single-workflow runs"},
		{[]string{"-in", wf, "-shared-cache", "-1"}, "-shared-cache applies to suites, not single-workflow runs"},
		{[]string{"-in", wf, "-shared-spill", spill}, "-shared-spill applies to suites, not single-workflow runs"},
		{[]string{"-workers", "2", wf, wf}, "-workers applies to single-workflow runs, not suites"},
		{[]string{"-in", wf, "-workers", "2"}, "-workers applies only with -optimize"},
		{[]string{"-in", wf, "-retries", "3"}, "-retries applies only with -faults"},
		{[]string{"-shared-spill", spill, wf, wf}, "-shared-spill applies only with -shared-cache 0 or more"},
		{[]string{"-shared-spill", spill, "-shared-cache", "-1", wf, wf}, "-shared-spill applies only with -shared-cache 0 or more"},
	} {
		args := append([]string{"-data", dir, "-journal", journal, "-cpuprofile", profile}, c.args...)
		got, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil || !strings.Contains(string(got), c.want) {
			t.Errorf("%v: err = %v, want a refusal naming %q:\n%s", c.args, err, c.want, got)
		}
		if left, _ := os.ReadDir(out); len(left) != 0 {
			t.Errorf("%v: the refused run left %s", c.args, left[0].Name())
		}
	}
	after := dirContents(t, dir)
	if len(after) != len(before) {
		t.Errorf("refused runs changed the data directory: %d files before, %d after", len(before), len(after))
	}
	for path, b := range before {
		if after[path] != b {
			t.Errorf("refused runs changed %s", path)
		}
	}

	files, dataRoot := setupSharedSuite(t, t.TempDir(), 2)
	profile = filepath.Join(t.TempDir(), "suite.pprof")
	if got, err := exec.Command(bin, append([]string{"-data", dataRoot, "-cpuprofile", profile}, files...)...).CombinedOutput(); err != nil {
		t.Fatalf("suite run: %v\n%s", err, got)
	}
	if st, err := os.Stat(profile); err != nil || st.Size() == 0 {
		t.Errorf("the suite run wrote no CPU profile: %v", err)
	}
}
