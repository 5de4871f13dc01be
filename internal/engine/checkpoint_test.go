package engine

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// failingRecordset wraps a recordset and fails Scan after a set number of
// successful scans — a deterministic failure injector.
type failingRecordset struct {
	data.Recordset
	failuresLeft *int
}

var errInjected = errors.New("injected source failure")

func (f failingRecordset) Scan() (data.Rows, error) {
	if *f.failuresLeft > 0 {
		*f.failuresLeft--
		return nil, errInjected
	}
	return f.Recordset.Scan()
}

func TestCheckpointRunCompletes(t *testing.T) {
	sc := templates.Fig1Scenario(80, 240)
	dir := filepath.Join(t.TempDir(), "stage")
	cr := NewCheckpointRunner(New(sc.Bind()), dir)
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Matches a plain run exactly.
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameRun(plain, res); err != nil {
		t.Errorf("checkpointed run differs from plain run: %v", err)
	}
	// Success cleans the staging area.
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) != 0 {
		t.Errorf("staging not cleared after success: %v", staged)
	}
}

func TestCheckpointResumeAfterFailure(t *testing.T) {
	sc := templates.Fig1Scenario(80, 240)
	bindings := sc.Bind()

	// PARTS2 fails on its first scan; PARTS1 succeeds, so branch 1 and the
	// PARTS1 scan are staged before the run dies.
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}

	dir := filepath.Join(t.TempDir(), "stage")
	cr := NewCheckpointRunner(New(bindings), dir)
	if _, err := cr.Run(context.Background(), sc.Graph); !errors.Is(err, errInjected) {
		t.Fatalf("first run should fail with the injected error, got %v", err)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) == 0 {
		t.Fatal("nothing staged before the failure")
	}

	// The resume run must not re-scan PARTS1 (its stage exists) and must
	// complete, producing exactly the plain result.
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	sameAsClean(t, sc, res)
}

func TestCheckpointResumeSkipsCompletedWork(t *testing.T) {
	// countingRecordset counts scans; after a failure mid-graph, resuming
	// must not re-scan the already-staged source.
	sc := templates.Fig1Scenario(50, 150)
	bindings := sc.Bind()
	scans := 0
	bindings["PARTS1"] = countingRecordset{Recordset: bindings["PARTS1"], scans: &scans}
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}

	dir := filepath.Join(t.TempDir(), "stage")
	cr := NewCheckpointRunner(New(bindings), dir)
	cr.Run(context.Background(), sc.Graph) // fails after staging PARTS1's scan
	if scans != 1 {
		t.Fatalf("PARTS1 scanned %d times before failure", scans)
	}
	if _, err := cr.Run(context.Background(), sc.Graph); err != nil {
		t.Fatal(err)
	}
	if scans != 1 {
		t.Errorf("resume re-scanned PARTS1 (%d scans); staged output should be reused", scans)
	}
}

type countingRecordset struct {
	data.Recordset
	scans *int
}

func (c countingRecordset) Scan() (data.Rows, error) {
	*c.scans++
	return c.Recordset.Scan()
}

func TestCheckpointSignatureMismatchClearsStage(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	bindings := sc.Bind()
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}

	dir := filepath.Join(t.TempDir(), "stage")
	cr := NewCheckpointRunner(New(bindings), dir)
	cr.Run(context.Background(), sc.Graph) // leaves stages behind

	// A *different* workflow (one more activity) must not consume them.
	g2 := withExtraNotNull(t, sc.Graph)
	res, err := cr.Run(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(sc.Bind()).Run(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameRun(plain, res); err != nil {
		t.Errorf("stale stages leaked into a different workflow's run: %v", err)
	}
}

// journalNodeRows runs g once through run with a journal and returns the
// run's result, the rows each node event carries by node key, and how many
// stages it restored.
func journalNodeRows(t *testing.T, g *workflow.Graph, run func(*obs.Journal) (*RunResult, error)) (*RunResult, map[string][]int64, int) {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, nil)
	res, err := run(j)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		return nil, nil, 0
	}
	evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	nodes, restored := map[string][]int64{}, 0
	for _, ev := range evs {
		switch {
		case ev.T == obs.EventNode:
			nodes[ev.Node] = append(nodes[ev.Node], ev.Rows)
		case ev.T == obs.EventCheckpoint && ev.Action == "restored":
			restored++
		}
	}
	return res, nodes, restored
}

// TestCheckpointKeepsKinds crashes a run once the stage holding
// String("007"), Float(2) and String("NULL") — as read, and as trim,
// concat and scale10 made them — is staged, resumes it, and holds the
// resumed run to an uninterrupted one value for value, Kind() included, and
// in its NodeRows and per-member node events, at P = 1 and 8.
func TestCheckpointKeepsKinds(t *testing.T) {
	schema := data.Schema{"K", "F", "N", "A", "B", "V"}
	g := workflow.NewGraph()
	cur := g.AddRecordset(&workflow.RecordsetRef{Name: "S1", Schema: schema, Rows: 3, IsSource: true})
	for _, a := range []*workflow.Activity{
		templates.Reformat("trim", "K"), templates.Convert("concat", "C", "A", "B"), templates.Convert("scale10", "W", "V"),
	} {
		id := g.AddActivity(a)
		g.MustAddEdge(cur, id)
		cur = id
	}
	t1 := g.AddRecordset(&workflow.RecordsetRef{Name: "T1", Schema: data.Schema{"K"}, IsTarget: true})
	g.MustAddEdge(cur, t1)
	s2 := g.AddRecordset(&workflow.RecordsetRef{Name: "S2", Schema: data.Schema{"K"}, Rows: 1, IsSource: true})
	t2 := g.AddRecordset(&workflow.RecordsetRef{Name: "T2", Schema: data.Schema{"K"}, IsTarget: true})
	g.MustAddEdge(s2, t2)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	g.Node(t1).RS.Schema = g.Node(cur).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	s := data.NewString
	rows := data.Rows{
		{s("007"), data.NewFloat(2), s("NULL"), s("00"), s("7"), data.NewFloat(0.5)},
		{s(" 042 "), data.NewFloat(2.5), data.Null, s("NU"), s("LL"), data.NewInt(3)},
		{s("7"), data.NewInt(7), s(""), s("2"), s(".0"), data.NewFloat(0.2)},
	}
	bind := func(failures *int) map[string]data.Recordset {
		return map[string]data.Recordset{
			"S1": data.NewMemoryRecordset("S1", schema).MustLoad(rows),
			"S2": failingRecordset{data.NewMemoryRecordset("S2", data.Schema{"K"}).MustLoad(data.Rows{{s("1.0")}}), failures},
		}
	}
	for _, p := range []int{1, 8} {
		opts := []Option{WithPartitions(p)}
		none := 0
		want, wantEvents, _ := journalNodeRows(t, g, func(j *obs.Journal) (*RunResult, error) {
			return New(bind(&none), append(opts, WithJournal(j))...).Run(context.Background(), g)
		})
		if want == nil {
			t.Fatalf("P=%d: the uninterrupted run failed", p)
		}
		dir := filepath.Join(t.TempDir(), "stage")
		once := 1
		crash := NewCheckpointRunner(New(bind(&once), opts...), dir)
		if _, err := crash.Run(context.Background(), g); !errors.Is(err, errInjected) {
			t.Fatalf("P=%d: the crashing run returned %v, want the injected error", p, err)
		}
		got, gotEvents, restored := journalNodeRows(t, g, func(j *obs.Journal) (*RunResult, error) {
			cr := NewCheckpointRunner(New(bind(&none), append(opts, WithJournal(j))...), dir)
			return cr.Run(context.Background(), g)
		})
		if got == nil {
			t.Fatalf("P=%d: the resumed run failed", p)
		}
		if restored == 0 {
			t.Fatalf("P=%d: the resumed run restored nothing", p)
		}
		for name, w := range want.Targets {
			gr := got.Targets[name]
			if len(gr) != len(w) {
				t.Fatalf("P=%d: target %s: %d rows resumed, %d uninterrupted", p, name, len(gr), len(w))
			}
			for i := range w {
				for c := range w[i] {
					if wv, gv := w[i][c], gr[i][c]; (data.Rows{{wv}}).Digest() != (data.Rows{{gv}}).Digest() {
						t.Errorf("P=%d: target %s row %d column %d: resumed %v (kind %d), uninterrupted %v (kind %d)",
							p, name, i, c, gv, gv.Kind(), wv, wv.Kind())
					}
				}
			}
		}
		if !reflect.DeepEqual(got.NodeRows, want.NodeRows) {
			t.Errorf("P=%d: resumed NodeRows %v, uninterrupted %v", p, got.NodeRows, want.NodeRows)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Errorf("P=%d: resumed node events %v, uninterrupted %v", p, gotEvents, wantEvents)
		}
	}
}

func TestCheckpointNullsSurviveStaging(t *testing.T) {
	// NULLs and typed values must round-trip through the stage file. Use a
	// workflow whose intermediate rows carry NULLs (no NN filter).
	schema := data.Schema{"K", "V"}
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: schema, Rows: 4, IsSource: true})
	ref := g.AddActivity(templates.Reformat("a2edate", "K")) // pass-through on strings
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: schema, IsTarget: true})
	g.MustAddEdge(src, ref)
	g.MustAddEdge(ref, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	rows := data.Rows{
		{data.NewString("01/02/2004"), data.Null},
		{data.NewString("03/04/2004"), data.NewFloat(2.5)},
	}
	bindings := map[string]data.Recordset{
		"S": data.NewMemoryRecordset("S", schema).MustLoad(rows),
	}
	dir := filepath.Join(t.TempDir(), "stage")
	cr := NewCheckpointRunner(New(bindings), dir)
	res, err := cr.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Targets["T"]
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	foundNull := false
	for _, r := range got {
		if r[1].IsNull() {
			foundNull = true
		}
	}
	if !foundNull {
		t.Error("NULL lost in staging round trip")
	}
}

// TestCheckpointClearDropsManifestFirst makes one listed stage file
// impossible to remove (a non-empty directory in its place): clear fails,
// and by then the MANIFEST is already gone, so a kill anywhere inside clear
// leaves no MANIFEST naming a deleted stage file.
func TestCheckpointClearDropsManifestFirst(t *testing.T) {
	dir := crashStaging(t, templates.Fig1Scenario(40, 120))
	cr := NewCheckpointRunner(nil, dir)
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	stuck := cr.stagePath(staged[len(staged)-1])
	if err := os.Remove(stuck); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(stuck, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cr.clear(); err == nil {
		t.Fatal("clear removed a non-empty directory in a stage file's place")
	}
	if _, err := os.Stat(cr.manifest); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("clear failed on a stage file with the MANIFEST still in place (stat: %v)", err)
	}
}

// TestCheckpointRemovesItsLeftovers plants what a killed run leaves behind
// — a row-file temporary and a stage file the MANIFEST does not list —
// beside each staging area a run accepts: none there, another workflow's,
// and this workflow's. The run removes them before it stages anything, so
// a run that fails again keeps only what its MANIFEST lists, and a
// successful run leaves no directory. A refused area keeps every file.
func TestCheckpointRemovesItsLeftovers(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	leftovers := []string{"stage-3.rows.tmp-1234567", "stage-999.rows"}
	removeManifest := func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	garbleManifest := func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name     string
		manifest func(t *testing.T, path string) // nil: keep the crash's
		g        *workflow.Graph
	}{
		{name: "no manifest", manifest: removeManifest, g: sc.Graph},
		{name: "another workflow's", g: withExtraNotNull(t, sc.Graph)},
		{name: "this workflow's", g: sc.Graph},
		{name: "refused", manifest: garbleManifest, g: sc.Graph},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := crashStaging(t, sc)
			if c.manifest != nil {
				c.manifest(t, filepath.Join(dir, "MANIFEST"))
			}
			for _, name := range leftovers {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("ETLR garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)

			// A run that dies again at PARTS2 shows what the start removed.
			bindings := sc.Bind()
			failures := 1
			bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}
			cr := NewCheckpointRunner(New(bindings), dir)
			_, err := cr.Run(context.Background(), c.g)
			if c.name == "refused" {
				if err == nil || !reflect.DeepEqual(dirFiles(t, dir), before) {
					t.Fatalf("a refused staging area was changed (err = %v)", err)
				}
				return
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("err = %v, want the injected failure", err)
			}
			staged, err := cr.Staged()
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{"MANIFEST": true}
			for _, id := range staged {
				want[filepath.Base(cr.stagePath(id))] = true
			}
			for name := range dirFiles(t, dir) {
				if !want[name] {
					t.Errorf("%s survived the start of a run", name)
				}
			}

			if _, err := NewCheckpointRunner(New(sc.Bind()), dir).Run(context.Background(), c.g); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("after a successful run the staging directory is still there (stat: %v)", err)
			}
		})
	}
}
