package engine

import (
	"bytes"
	"context"
	"errors"
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
	cr, err := NewCheckpointRunner(New(sc.Bind()), dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Matches a plain run exactly.
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsIdentical(res.Targets["DW.PARTS"], plain.Targets["DW.PARTS"]) {
		t.Error("checkpointed run differs from plain run")
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
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
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
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
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
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
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
	if !rowsIdentical(res.Targets["DW.PARTS"], plain.Targets["DW.PARTS"]) {
		t.Error("stale stages leaked into a different workflow's run")
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
		opts := []Option{WithMode(Parallel), WithPartitions(p)}
		none := 0
		want, wantEvents, _ := journalNodeRows(t, g, func(j *obs.Journal) (*RunResult, error) {
			return New(bind(&none), append(opts, WithJournal(j))...).Run(context.Background(), g)
		})
		if want == nil {
			t.Fatalf("P=%d: the uninterrupted run failed", p)
		}
		dir := filepath.Join(t.TempDir(), "stage")
		once := 1
		crash, err := NewCheckpointRunner(New(bind(&once), opts...), dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := crash.Run(context.Background(), g); !errors.Is(err, errInjected) {
			t.Fatalf("P=%d: the crashing run returned %v, want the injected error", p, err)
		}
		got, gotEvents, restored := journalNodeRows(t, g, func(j *obs.Journal) (*RunResult, error) {
			cr, err := NewCheckpointRunner(New(bind(&none), append(opts, WithJournal(j))...), dir)
			if err != nil {
				t.Fatal(err)
			}
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
					if wv, gv := w[i][c], gr[i][c]; wv.Kind() != gv.Kind() || wv.Key() != gv.Key() {
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
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
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
