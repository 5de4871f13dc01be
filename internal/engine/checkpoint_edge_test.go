package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// crashStaging runs the scenario with a once-failing PARTS2 so the run
// dies mid-workflow, leaving a partially populated staging area, and
// returns the staging dir. The damage functions below then corrupt it.
func crashStaging(t testing.TB, sc *templates.Scenario) string {
	t.Helper()
	bindings := sc.Bind()
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}
	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Run(context.Background(), sc.Graph); !errors.Is(err, errInjected) {
		t.Fatalf("setup run should fail with the injected error, got %v", err)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) == 0 {
		t.Fatal("setup crash staged nothing")
	}
	return dir
}

// dirFiles maps every file of dir to its bytes.
func dirFiles(t testing.TB, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// sameAsClean fails unless res is what a clean run of sc loads and counts.
func sameAsClean(t testing.TB, sc *templates.Scenario, res *RunResult) {
	t.Helper()
	clean, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameRun(clean, res); err != nil {
		t.Errorf("not a clean run: %v", err)
	}
}

// editLine returns the manifest m with its i-th line (from 0) replaced.
func editLine(m string, i int, line string) string {
	lines := strings.SplitAfter(m, "\n")
	lines[i] = line
	return strings.Join(lines, "")
}

// TestCheckpointStagingDamage drives the resume path through the ways a
// staging area can be wrong on disk, one rule each. No manifest is a fresh
// start, another workflow's a restart, and a torn last line a stage to
// recompute: each run loads what a clean run loads. A manifest that is
// empty, garbage, of the CSV era, truncated in its header or damaged in a
// stage line is refused with an error naming the directory, and nothing is
// removed. Stage files the manifest does not list are ignored; a listed row
// file that is damaged fails the resume rather than loading garbage.
func TestCheckpointStagingDamage(t *testing.T) {
	sc := templates.Fig1Scenario(50, 150)
	const resumes, refused, fails = 0, 1, 2
	cases := []struct {
		name     string
		manifest func(m string) string // the new MANIFEST, given the crash's
		damage   func(t *testing.T, dir string)
		want     int
	}{
		{name: "no manifest", damage: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "another signature", manifest: func(m string) string { return editLine(m, 1, "another workflow\n") }},
		{name: "torn last stage line", manifest: func(m string) string { return m[:len(m)-4] }},
		{name: "CSV-era manifest", manifest: func(string) string { return sc.Graph.Signature() + "\n" }, want: refused},
		{name: "empty manifest", manifest: func(string) string { return "" }, want: refused},
		{name: "corrupt manifest", manifest: func(string) string { return "garbage signature\n" }, want: refused},
		{name: "truncated manifest", manifest: func(m string) string { return m[:len(manifestMagic)+4] }, want: refused},
		{name: "damaged stage line", manifest: func(m string) string { return editLine(m, 2, "1"+strings.SplitAfter(m, "\n")[2]) }, want: refused},
		{name: "orphan stage files", damage: func(t *testing.T, dir string) {
			for _, name := range []string{"stage-999.rows", "stage-1000.rows"} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("ETLR garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "corrupt staged rows", damage: func(t *testing.T, dir string) {
			cr, _ := NewCheckpointRunner(nil, dir)
			staged, err := cr.Staged()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(cr.stagePath(staged[0]), 10); err != nil {
				t.Fatal(err)
			}
		}, want: fails},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := crashStaging(t, sc)
			if c.manifest != nil {
				path := filepath.Join(dir, "MANIFEST")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(c.manifest(string(b))), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if c.damage != nil {
				c.damage(t, dir)
			}
			before := dirFiles(t, dir)
			cr, err := NewCheckpointRunner(New(sc.Bind()), dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cr.Run(context.Background(), sc.Graph)
			switch {
			case c.want == refused:
				if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "MANIFEST") {
					t.Fatalf("err = %v, want a refusal naming %s and its MANIFEST", err, dir)
				}
				if !reflect.DeepEqual(dirFiles(t, dir), before) {
					t.Error("a refused staging area was changed")
				}
			case c.want == fails:
				var rfe *data.RowFileError
				if !errors.As(err, &rfe) {
					t.Fatalf("resume over a damaged row file: err = %v, want a *data.RowFileError", err)
				}
			case err != nil:
				t.Fatalf("resume failed: %v", err)
			default:
				sameAsClean(t, sc, res)
				if staged, err := cr.Staged(); err != nil || len(staged) != 0 {
					t.Errorf("staging not cleared after success: %v, %v", staged, err)
				}
			}
		})
	}
}

// FuzzCheckpointManifest puts arbitrary MANIFEST bytes over a real staging
// area: the run resumes or restarts and loads and counts what a clean run
// does — so no stage was restored under another's ID — or it refuses the
// directory, naming it, and changes nothing in it.
func FuzzCheckpointManifest(f *testing.F) {
	sc := templates.Fig1Scenario(30, 90)
	m, err := os.ReadFile(filepath.Join(crashStaging(f, sc), "MANIFEST"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m)
	f.Add(m[:len(m)-5])
	f.Add([]byte(sc.Graph.Signature() + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := crashStaging(t, sc)
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		cr, err := NewCheckpointRunner(New(sc.Bind()), dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cr.Run(context.Background(), sc.Graph)
		if err == nil {
			sameAsClean(t, sc, res)
			return
		}
		if !strings.Contains(err.Error(), "checkpoint dir "+dir+": MANIFEST") {
			t.Fatalf("err = %v, want a refusal naming %s and its MANIFEST", err, dir)
		}
		if !reflect.DeepEqual(dirFiles(t, dir), before) {
			t.Fatal("a refused staging area was changed")
		}
	})
}

// withExtraNotNull is g with one more activity after its filter: a
// different workflow, whose signature no staging area of g's matches.
func withExtraNotNull(t *testing.T, g *workflow.Graph) *workflow.Graph {
	t.Helper()
	g2 := g.Clone()
	var sigma workflow.NodeID
	for _, id := range g2.Activities() {
		if g2.Node(id).Act.Sem.Op == workflow.OpFilter {
			sigma = id
		}
	}
	extra := g2.AddActivity(templates.NotNull(0.99, "ECOST"))
	g2.MustReplaceProvider(g2.Consumers(sigma)[0], sigma, extra)
	g2.MustAddEdge(sigma, extra)
	if err := g2.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	return g2
}

// TestCheckpointRemovesOnlyItsOwnFiles puts a file the runner did not
// write into the staging directory: it survives a successful run, a
// signature-mismatch restart and a refused directory, and after a success
// it is all that is left.
func TestCheckpointRemovesOnlyItsOwnFiles(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	for _, c := range []struct {
		name    string
		dir     func(t *testing.T) string
		g       *workflow.Graph
		refused bool
	}{
		{"successful run", func(t *testing.T) string { return filepath.Join(t.TempDir(), "stage") }, sc.Graph, false},
		{"signature mismatch", func(t *testing.T) string { return crashStaging(t, sc) }, withExtraNotNull(t, sc.Graph), false},
		{"refused directory", func(t *testing.T) string {
			dir := crashStaging(t, sc)
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("garbage\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}, sc.Graph, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := c.dir(t)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			foreign := filepath.Join(dir, "notes.txt")
			if err := os.WriteFile(foreign, []byte("not the runner's\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			before, _ := os.ReadDir(dir)
			cr, err := NewCheckpointRunner(New(sc.Bind()), dir)
			if err != nil {
				t.Fatal(err)
			}
			_, err = cr.Run(context.Background(), c.g)
			after, _ := os.ReadDir(dir)
			switch {
			case c.refused:
				if err == nil || !strings.Contains(err.Error(), dir) {
					t.Fatalf("err = %v, want a refusal naming %s", err, dir)
				}
				if len(after) != len(before) {
					t.Errorf("a refused directory lost files: %d before, %d after", len(before), len(after))
				}
			case err != nil:
				t.Fatal(err)
			case len(after) != 1 || after[0].Name() != "notes.txt":
				t.Errorf("after a successful run the directory holds %v, want only notes.txt", after)
			}
			if b, err := os.ReadFile(foreign); err != nil || string(b) != "not the runner's\n" {
				t.Errorf("the foreign file did not survive: %q, %v", b, err)
			}
		})
	}
}

// cancellingRecordset cancels the run's context from inside its own scan,
// which succeeds. The scan runs on the reader goroutine, one source ahead
// of the driver, and the reader keeps it for the driver until the driver
// returns: a driver already waiting for this source takes and stages it, a
// driver still busy notices the cancellation at its next stage boundary and
// never does. Every source handed over earlier is staged either way.
type cancellingRecordset struct {
	data.Recordset
	cancel context.CancelFunc
	scans  *int
}

func (c cancellingRecordset) Scan() (data.Rows, error) {
	*c.scans++
	c.cancel()
	return c.Recordset.Scan()
}

// Cancellation mid-run behaves exactly like the crash the runner exists
// to survive: the staging area stays intact and a later run resumes from
// it without repeating a staged scan. PARTS1 is handed over before PARTS2
// is scanned at all, so it is staged by the time the driver can notice.
func TestCheckpointResumeAfterCancellation(t *testing.T) {
	sc := templates.Fig1Scenario(50, 150)
	bindings := sc.Bind()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scans, scans1 := 0, 0
	bindings["PARTS1"] = countingRecordset{Recordset: bindings["PARTS1"], scans: &scans1}
	bindings["PARTS2"] = cancellingRecordset{Recordset: bindings["PARTS2"], cancel: cancel, scans: &scans}

	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cr.Run(ctx, sc.Graph)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run should return context.Canceled, got %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "cancelled before node") || !strings.Contains(msg, "rows") {
		t.Errorf("checkpoint cancellation error names neither node nor rows: %q", msg)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) == 0 {
		t.Fatal("cancellation left nothing staged")
	}
	wantScans := 2 // PARTS2: scanned again unless the driver had taken and staged it
	for _, id := range staged {
		if n := sc.Graph.Node(id); n.Kind == workflow.KindRecordset && n.RS.Name == "PARTS2" {
			wantScans = 1
		}
	}

	// Resume with a fresh context: completes, reuses the staged scans.
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatalf("resume after cancellation failed: %v", err)
	}
	if scans1 != 1 || scans != wantScans {
		t.Errorf("PARTS1 scanned %d times, PARTS2 %d; want 1 and %d: a staged scan should have been reused", scans1, scans, wantScans)
	}
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameRun(plain, res); err != nil {
		t.Errorf("resumed run differs from a clean run: %v", err)
	}
}

// TestLoadStageDamage covers what a staged row file can look like on
// disk: the file it was written as reads back value for value; truncated,
// with one byte flipped, or of another schema it is a *data.RowFileError
// whose message names the stage.
func TestLoadStageDamage(t *testing.T) {
	cr, err := NewCheckpointRunner(New(nil), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	schema := data.Schema{"A", "B"}
	rows := data.Rows{{data.NewString("007"), data.NewFloat(2)}, {data.NewString("NULL"), data.Null}}
	if err := data.WriteRowFile(cr.stagePath(7), schema, rows); err != nil {
		t.Fatal(err)
	}
	if got, err := cr.loadStage(7, schema); err != nil || got.Digest() != rows.Digest() {
		t.Fatalf("an intact stage reads back %v, %v; want %v", got, err, rows)
	}
	good, err := os.ReadFile(cr.stagePath(7))
	if err != nil {
		t.Fatal(err)
	}
	flipped := []byte(string(good))
	flipped[len(flipped)/2] ^= 0x10
	for _, c := range []struct {
		name   string
		file   []byte
		schema data.Schema
	}{
		{"truncated", good[:len(good)-3], schema},
		{"one flipped byte", flipped, schema},
		{"a different schema", good, data.Schema{"A", "C"}},
	} {
		if err := os.WriteFile(cr.stagePath(7), c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := cr.loadStage(7, c.schema)
		var rfe *data.RowFileError
		if !errors.As(err, &rfe) || !strings.Contains(err.Error(), "stage 7") {
			t.Errorf("%s: error %v is not a *data.RowFileError naming stage 7", c.name, err)
		}
	}
}
