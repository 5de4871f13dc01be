package engine

import (
	"context"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// runBinary executes L(bin)R → TGT and returns the target rows.
func runBinary(t *testing.T, mode Mode, lSchema, rSchema data.Schema, lRows, rRows data.Rows, bin *workflow.Activity) data.Rows {
	t.Helper()
	g := workflow.NewGraph()
	l := g.AddRecordset(&workflow.RecordsetRef{Name: "L", Schema: lSchema, Rows: float64(len(lRows)), IsSource: true})
	r := g.AddRecordset(&workflow.RecordsetRef{Name: "R", Schema: rSchema, Rows: float64(len(rRows)), IsSource: true})
	b := g.AddActivity(bin)
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"x"}, IsTarget: true})
	g.MustAddEdge(l, b)
	g.MustAddEdge(r, b)
	g.MustAddEdge(b, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	g.Node(tgt).RS.Schema = g.Node(b).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	e := New(map[string]data.Recordset{
		"L": data.NewMemoryRecordset("L", lSchema).MustLoad(lRows),
		"R": data.NewMemoryRecordset("R", rSchema).MustLoad(rRows),
	}, WithMode(mode), WithPartitions(3))
	res, err := e.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Targets["TGT"]
}

func TestUnionExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		schema := data.Schema{"K"}
		got := runBinary(t, mode, schema, schema,
			data.Rows{{data.NewInt(1)}, {data.NewInt(2)}},
			data.Rows{{data.NewInt(2)}, {data.NewInt(3)}},
			templates.Union())
		// Bag union: duplicates preserved.
		if len(got) != 4 {
			t.Errorf("union = %v", got)
		}
	})
}

func TestUnionRealignsAttributeOrder(t *testing.T) {
	// The second branch delivers the same attributes in a different order;
	// the union must realign by name.
	got := runBinary(t, Materialized,
		data.Schema{"K", "V"}, data.Schema{"V", "K"},
		data.Rows{{data.NewInt(1), data.NewFloat(10)}},
		data.Rows{{data.NewFloat(20), data.NewInt(2)}},
		templates.Union())
	if len(got) != 2 {
		t.Fatalf("union = %v", got)
	}
	for _, r := range got {
		if r[0].Kind() != data.KindInt {
			t.Errorf("misaligned union row: %v", r)
		}
	}
}

func TestJoinExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		got := runBinary(t, mode,
			data.Schema{"K", "A"}, data.Schema{"K", "B"},
			data.Rows{
				{data.NewInt(1), data.NewString("a1")},
				{data.NewInt(2), data.NewString("a2")},
				{data.NewInt(2), data.NewString("a2bis")},
			},
			data.Rows{
				{data.NewInt(2), data.NewString("b2")},
				{data.NewInt(3), data.NewString("b3")},
			},
			templates.Join(0.1, "K"))
		// Equi-join on K: key 2 matches twice (two left rows × one right).
		if len(got) != 2 {
			t.Fatalf("join = %v", got)
		}
		for _, r := range got {
			if r[0].Int() != 2 {
				t.Errorf("join row key = %v", r)
			}
			if len(r) != 3 {
				t.Errorf("join row arity = %v", r)
			}
		}
	})
}

func TestDiffExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		got := runBinary(t, mode,
			data.Schema{"K", "A"}, data.Schema{"K", "B"},
			data.Rows{
				{data.NewInt(1), data.NewString("x")},
				{data.NewInt(2), data.NewString("y")},
			},
			data.Rows{{data.NewInt(1), data.NewString("z")}},
			templates.Diff(0.5, "K"))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("diff = %v", got)
		}
	})
}

func TestIntersectExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		got := runBinary(t, mode,
			data.Schema{"K", "A"}, data.Schema{"K", "B"},
			data.Rows{
				{data.NewInt(1), data.NewString("x")},
				{data.NewInt(2), data.NewString("y")},
			},
			data.Rows{{data.NewInt(1), data.NewString("z")}},
			templates.Intersect(0.5, "K"))
		if len(got) != 1 || got[0][0].Int() != 1 {
			t.Errorf("intersect = %v", got)
		}
	})
}

func TestModesAgreeOnFig1(t *testing.T) {
	sc := templates.Fig1Scenario(120, 360)
	mat := New(sc.Bind(), WithMode(Materialized))
	par := New(sc.Bind(), WithMode(Parallel), WithPartitions(3))
	r1, err := mat.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := par.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rows1 := r1.Targets["DW.PARTS"]
	rows2 := r2.Targets["DW.PARTS"]
	if !rowsIdentical(rows1, rows2) {
		t.Errorf("modes disagree row for row: %d vs %d rows; %v",
			len(rows1), len(rows2), rows1.DiffMultiset(rows2, 3))
	}
	if len(rows1) == 0 {
		t.Error("Fig. 1 scenario produced no warehouse rows")
	}
}

func TestDiamondPipelineNoDeadlock(t *testing.T) {
	// One source feeding two branches that re-converge on a union: the
	// source's output has two readers and lives until the second has run,
	// and the union emits its first input's rows, then its second's.
	schema := data.Schema{"K", "V"}
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: schema, Rows: 500, IsSource: true})
	f1 := g.AddActivity(templates.Threshold("V", 50, 0.5))
	f2 := g.AddActivity(templates.Threshold("V", 150, 0.2))
	u := g.AddActivity(templates.Union())
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: schema, IsTarget: true})
	g.MustAddEdge(src, f1)
	g.MustAddEdge(src, f2)
	g.MustAddEdge(f1, u)
	g.MustAddEdge(f2, u)
	g.MustAddEdge(u, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	rows := make(data.Rows, 500)
	var over50, over150 data.Rows
	for i := range rows {
		rows[i] = data.Record{data.NewInt(int64(i)), data.NewFloat(float64(i % 200))}
		if i%200 >= 50 {
			over50 = append(over50, rows[i])
		}
		if i%200 >= 150 {
			over150 = append(over150, rows[i])
		}
	}
	want := append(over50, over150...)
	bind := map[string]data.Recordset{"S": data.NewMemoryRecordset("S", schema).MustLoad(rows)}
	for _, p := range []int{1, 3} {
		res, err := New(bind, WithMode(Parallel), WithPartitions(p)).Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Targets["T"]; !rowsIdentical(got, want) {
			t.Errorf("diamond at P=%d: %d rows, want the %d of σ(V≥50) then σ(V≥150)", p, len(got), len(want))
		}
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	// A surrogate key with a missing lookup binding must surface as an
	// error naming the activity, in either mode.
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"K"}, IsSource: true})
	sk := g.AddActivity(templates.SurrogateKey("K", "SK", "NOPE"))
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"SK"}, IsTarget: true})
	g.MustAddEdge(src, sk)
	g.MustAddEdge(sk, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	bind := map[string]data.Recordset{
		"S": data.NewMemoryRecordset("S", data.Schema{"K"}).MustLoad(data.Rows{{data.NewInt(1)}}),
	}
	for _, mode := range []Mode{Materialized, Parallel} {
		_, err := New(bind, WithMode(mode), WithPartitions(3)).Run(context.Background(), g)
		if err == nil || !strings.Contains(err.Error(), g.Node(sk).Label()) || !strings.Contains(err.Error(), "NOPE") {
			t.Errorf("mode %v: err = %v, want one naming activity %q and lookup NOPE", mode, err, g.Node(sk).Label())
		}
	}
}

func TestUnboundSourceError(t *testing.T) {
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"K"}, IsSource: true})
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"K"}, IsTarget: true})
	g.MustAddEdge(src, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Materialized, Parallel} {
		if _, err := New(nil, WithMode(mode)).Run(context.Background(), g); err == nil {
			t.Errorf("mode %v: unbound source should error", mode)
		}
	}
}

// A Mode that is neither Materialized nor Parallel is refused before any
// source is scanned, plain and under a checkpoint runner.
func TestUnknownModeRefused(t *testing.T) {
	sc := templates.Fig1Scenario(10, 30)
	bindings := sc.Bind()
	scans := 0
	bindings["PARTS1"] = countingRecordset{Recordset: bindings["PARTS1"], scans: &scans}
	e := New(bindings, WithMode(Parallel+1))
	cr, err := NewCheckpointRunner(e, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(context.Context, *workflow.Graph) (*RunResult, error){e.Run, cr.Run} {
		if _, err := run(context.Background(), sc.Graph); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("err = %v, want an unknown-mode error", err)
		}
	}
	if scans != 0 {
		t.Errorf("refused runs scanned a source %d times", scans)
	}
}

func TestTargetLoading(t *testing.T) {
	// When the target recordset is bound, rows are loaded into it.
	schema := data.Schema{"K"}
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: schema, IsSource: true})
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: schema, IsTarget: true})
	g.MustAddEdge(src, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	target := data.NewMemoryRecordset("T", schema)
	e := New(map[string]data.Recordset{
		"S": data.NewMemoryRecordset("S", schema).MustLoad(data.Rows{{data.NewInt(7)}}),
		"T": target,
	})
	if _, err := e.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if n, _ := target.Count(); n != 1 {
		t.Errorf("target holds %d rows, want 1", n)
	}
}

func TestNodeRowsObservability(t *testing.T) {
	sc := templates.Fig1Scenario(60, 120)
	res, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Every node must report a row count, and the sources must match the
	// generated data sizes.
	for _, id := range sc.Graph.Nodes() {
		if _, ok := res.NodeRows[id]; !ok {
			t.Errorf("node %d missing from NodeRows", id)
		}
	}
	srcRows := 0
	for _, id := range sc.Graph.Sources() {
		srcRows += res.NodeRows[id]
	}
	if srcRows != 180 {
		t.Errorf("source NodeRows = %d, want 180", srcRows)
	}
}
