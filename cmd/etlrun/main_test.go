package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/clidoc"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "etlrun")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building etlrun: %v\n%s", err, out)
	}
	return bin
}

// setupFig1 writes the Fig. 1 workflow file and its source CSVs into dir.
func setupFig1(t *testing.T, dir string) string {
	t.Helper()
	sc := templates.Fig1Scenario(40, 120)
	text, err := dsl.Serialize(sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	wf := filepath.Join(dir, "fig1.etl")
	if err := os.WriteFile(wf, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, rows := range sc.Sources {
		rs, err := data.NewFileRecordset(name, sc.Schemas[name], filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	return wf
}

func TestCLIRunFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)

	out, err := exec.Command(bin, "-in", wf, "-data", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "target DW.PARTS:") {
		t.Errorf("missing target report:\n%s", out)
	}
	// The target CSV was created and holds rows.
	rs, err := data.NewFileRecordset("DW.PARTS",
		data.Schema{"PKEY", "SOURCE", "DATE", "ECOST"}, filepath.Join(dir, "DW.PARTS.csv"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := rs.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no rows written to the target CSV")
	}
}

func TestCLIRunOptimizedParallelMatchesPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)

	dirA := t.TempDir()
	wfA := setupFig1(t, dirA)
	if out, err := exec.Command(bin, "-in", wfA, "-data", dirA).CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	dirB := t.TempDir()
	wfB := setupFig1(t, dirB)
	out, err := exec.Command(bin, "-in", wfB, "-data", dirB, "-optimize", "hs", "-mode", "parallel", "-partitions", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "optimized with HS") {
		t.Errorf("missing optimization report:\n%s", out)
	}

	schema := data.Schema{"PKEY", "SOURCE", "DATE", "ECOST"}
	a, err := data.NewFileRecordset("A", schema, filepath.Join(dirA, "DW.PARTS.csv"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := data.NewFileRecordset("B", schema, filepath.Join(dirB, "DW.PARTS.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rowsA, _ := a.Scan()
	rowsB, _ := b.Scan()
	if err := rowsA.SameMultiset(rowsB); err != nil {
		t.Errorf("optimized parallel run wrote different data: %v", err)
	}
}

// dirContents maps every file under dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCLIRejectsUnknownFlagValuesFirst: a -mode (the removed "pipelined"
// among them), -optimize or -faults value etlrun does not know fails the
// run before the optimizer has run and before the journal, a target CSV or
// anything else is created, and the error names what is accepted.
func TestCLIRejectsUnknownFlagValuesFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	before := dirContents(t, dir)
	for _, c := range []struct {
		flag, value string
		want        []string
	}{
		{"-mode", "pipelined", []string{"materialized", "parallel"}},
		{"-mode", "bogus", []string{"materialized", "parallel"}},
		{"-optimize", "bogus", []string{"es", "greedy", "hs"}},
		{"-faults", "nonsense", []string{"seed:rate"}},
	} {
		journal := filepath.Join(t.TempDir(), "run.jsonl")
		args := []string{"-in", wf, "-data", dir, "-optimize", "hs", "-journal", journal, c.flag, c.value}
		for _, more := range [][]string{nil, {wf}} { // single run, suite
			cmd := exec.Command(bin, append(args, more...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err == nil {
				t.Errorf("%s %s: exit 0, want a refusal", c.flag, c.value)
			}
			for _, w := range c.want {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("%s %s: stderr %q does not name %q", c.flag, c.value, stderr.String(), w)
				}
			}
			if strings.Contains(stdout.String(), "optimized with") {
				t.Errorf("%s %s: the optimizer ran before the refusal:\n%s", c.flag, c.value, stdout.String())
			}
			if _, err := os.Stat(journal); !os.IsNotExist(err) {
				t.Errorf("%s %s: journal file exists after the refusal (stat err = %v)", c.flag, c.value, err)
			}
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
}

func TestCLIImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	out, err := exec.Command(bin, "-in", wf, "-impact", "PARTS2").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "downstream (must re-run)") ||
		!strings.Contains(text, "stale targets: [DW.PARTS]") {
		t.Errorf("impact output unexpected:\n%s", text)
	}
	if err := exec.Command(bin, "-in", wf, "-impact", "NOPE").Run(); err == nil {
		t.Error("unknown impact node should fail")
	}
}

func TestCLIMissingSource(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	os.Remove(filepath.Join(dir, "PARTS2.csv"))
	if err := exec.Command(bin, "-in", wf, "-data", dir).Run(); err == nil {
		t.Error("missing source CSV should fail")
	}
}

func TestCLICheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	stage := filepath.Join(dir, "stage")
	out, err := exec.Command(bin, "-in", wf, "-data", dir, "-checkpoint", stage).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Successful completion clears the staging directory.
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Errorf("staging dir should be removed after success, stat err = %v", err)
	}
}

// TestCLICheckpointResumeComposesWithPartitions crashes a checkpointed
// -mode parallel -partitions 8 run mid-workflow (an injected fault with no
// retry budget), re-runs it over the same staging directory, and requires
// the resumed run to restore staged stages and write target CSVs
// byte-identical to an uninterrupted -mode materialized run.
func TestCLICheckpointResumeComposesWithPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	clean := t.TempDir()
	wf := setupFig1(t, clean)
	if out, err := exec.Command(bin, "-in", wf, "-data", clean, "-mode", "materialized").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join(clean, "DW.PARTS.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// The fault schedule is a pure function of the seed: take the first
	// seed whose crash comes after at least half the stages are staged —
	// Fig. 1 runs as 7 stages before its target, one of them two fused
	// activities.
	for seed := 1; seed <= 64; seed++ {
		dir := t.TempDir()
		wf := setupFig1(t, dir)
		stage := filepath.Join(dir, "stage")
		args := []string{"-in", wf, "-data", dir, "-mode", "parallel", "-partitions", "8", "-checkpoint", stage}
		crash := append(append([]string{}, args...), "-faults", fmt.Sprintf("%d:0.1", seed), "-retries", "1")
		if err := exec.Command(bin, crash...).Run(); err == nil {
			continue // this seed's schedule let the run finish
		}
		if staged, _ := filepath.Glob(filepath.Join(stage, "stage-*.rows")); len(staged) < 4 {
			continue
		}
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("seed %d: resume failed: %v\n%s", seed, err, out)
		}
		if !strings.Contains(string(out), "resuming:") {
			t.Errorf("seed %d: resumed run did not report staged stages:\n%s", seed, out)
		}
		got, err := os.ReadFile(filepath.Join(dir, "DW.PARTS.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: resumed parallel run wrote a target differing from the materialized run", seed)
		}
		return
	}
	t.Fatal("no seed in 1..64 crashed the run with half its stages staged")
}

// TestCLICheckpointInTheDataDir stages into the data directory itself:
// the run removes its own files only, so the sources and the target it
// just loaded are still there, byte for byte where they were inputs.
func TestCLICheckpointInTheDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	before := dirContents(t, dir)
	if out, err := exec.Command(bin, "-in", wf, "-data", dir, "-checkpoint", dir).CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	after := dirContents(t, dir)
	for path, b := range before {
		if after[path] != b {
			t.Errorf("%s changed or went missing", path)
		}
	}
	target := filepath.Join(dir, "DW.PARTS.csv")
	if len(after) != len(before)+1 || after[target] == "" {
		t.Errorf("the directory holds %d files, %d before; want the inputs and a non-empty %s", len(after), len(before), target)
	}
}

func TestCLIExplainAndCalibrate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	out, err := exec.Command(bin, "-in", wf, "-data", dir, "-explain", "-calibrate").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "estimated vs actual cardinalities") {
		t.Errorf("missing explain table:\n%s", text)
	}
	if !strings.Contains(text, "calibrated re-optimization") {
		t.Errorf("missing calibration report:\n%s", text)
	}
}

// TestCLITraceHoldsEveryActivity runs a workflow of 300 activities, more
// spans than the span window of 256 the registry once kept, under -journal
// and converts the journal with etlvet obs -format trace: the trace must
// hold one node/<key> event per journaled node event.
func TestCLITraceHoldsEveryActivity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	var wf strings.Builder
	wf.WriteString("recordset SRC source rows=10 schema=K,V\n")
	prev := "SRC"
	var flows strings.Builder
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("f%d", i)
		fmt.Fprintf(&wf, "activity %s filter pred=\"(V>=%d)\" sel=1\n", name, -i)
		fmt.Fprintf(&flows, "flow %s -> %s\n", prev, name)
		prev = name
	}
	wf.WriteString("recordset DW target schema=K,V\n\n")
	fmt.Fprintf(&flows, "flow %s -> DW\n", prev)
	wf.WriteString(flows.String())
	in := filepath.Join(dir, "chain.etl")
	if err := os.WriteFile(in, []byte(wf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "SRC.csv"), []byte("K,V\n1,5\n2,7\n3,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "run.jsonl")
	out, err := exec.Command(bin, "-in", in, "-data", dir, "-mode", "parallel", "-partitions", "2",
		"-journal", journal).CombinedOutput()
	if err != nil {
		t.Fatalf("etlrun: %v\n%s", err, out)
	}
	evs, err := obs.ReadJournalFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, e := range evs {
		if e.T == obs.EventNode {
			want["node/"+e.Node]++
		}
	}
	if len(want) != 300 {
		t.Fatalf("journal holds node events for %d activities, want 300", len(want))
	}
	vet := filepath.Join(t.TempDir(), "etlvet")
	if out, err := exec.Command("go", "build", "-o", vet, "../etlvet").CombinedOutput(); err != nil {
		t.Fatalf("building etlvet: %v\n%s", err, out)
	}
	var raw, stderr bytes.Buffer
	conv := exec.Command(vet, "obs", "-format", "trace", journal)
	conv.Stdout, conv.Stderr = &raw, &stderr
	if err := conv.Run(); err != nil {
		t.Fatalf("etlvet obs -format trace: %v\n%s", err, stderr.String())
	}
	var tf struct {
		TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			spans++
			if strings.HasPrefix(e.Name, "node/") {
				want[e.Name]--
			}
		}
	}
	if spans <= 256 {
		t.Errorf("the trace holds %d spans; the workflow should derive more than 256", spans)
	}
	for name, n := range want {
		if n != 0 {
			t.Errorf("%s: %d journaled node event(s) without a trace event", name, n)
		}
	}
}

// TestREADMEFlagsExist: every -flag README.md passes to etlrun is a flag
// `etlrun -h` lists.
func TestREADMEFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	clidoc.Check(t, "../../README.md", "etlrun", func([]string) []byte {
		out, _ := exec.Command(bin, "-h").CombinedOutput()
		return out
	})
}
