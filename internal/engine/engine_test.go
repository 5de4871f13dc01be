package engine

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// runChain executes SRC(schema, rows) → acts → TGT and returns the target
// rows, at p partitions.
func runChain(t *testing.T, p int, schema data.Schema, rows data.Rows,
	extra map[string]data.Recordset, acts ...*workflow.Activity) data.Rows {
	t.Helper()
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "SRC", Schema: schema, Rows: float64(len(rows)), IsSource: true})
	cur := src
	for _, a := range acts {
		id := g.AddActivity(a)
		g.MustAddEdge(cur, id)
		cur = id
	}
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"x"}, IsTarget: true})
	g.MustAddEdge(cur, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	g.Node(tgt).RS.Schema = g.Node(cur).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}

	bindings := map[string]data.Recordset{
		"SRC": data.NewMemoryRecordset("SRC", schema).MustLoad(rows),
	}
	for k, v := range extra {
		bindings[k] = v
	}
	e := New(bindings, WithPartitions(p))
	res, err := e.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Targets["TGT"]
}

// bothModes runs f at one partition ("materialized") and at three
// ("parallel").
func bothModes(t *testing.T, f func(t *testing.T, p int)) {
	t.Run("materialized", func(t *testing.T) { f(t, 1) })
	t.Run("parallel", func(t *testing.T) { f(t, 3) })
}

func TestFilterExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		rows := data.Rows{
			{data.NewInt(1), data.NewFloat(50)},
			{data.NewInt(2), data.NewFloat(150)},
			{data.NewInt(3), data.Null},
		}
		got := runChain(t, p, data.Schema{"K", "V"}, rows, nil, templates.Threshold("V", 100, 0.5))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("filter result = %v", got)
		}
	})
}

func TestNotNullExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		rows := data.Rows{
			{data.NewInt(1), data.Null},
			{data.NewInt(2), data.NewFloat(1)},
		}
		got := runChain(t, p, data.Schema{"K", "V"}, rows, nil, templates.NotNull(0.9, "V"))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("notnull result = %v", got)
		}
	})
}

func TestConvertExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		rows := data.Rows{{data.NewInt(1), data.NewFloat(100)}}
		got := runChain(t, p, data.Schema{"K", "DCOST"}, rows, nil,
			templates.Convert("dollar2euro", "ECOST", "DCOST"))
		if len(got) != 1 {
			t.Fatalf("convert result = %v", got)
		}
		// Output schema is {K, ECOST}; euro value = 100 × rate.
		if got[0][1].Float() != 100*algebra.DollarEuroRate {
			t.Errorf("converted value = %v", got[0][1])
		}
	})
}

func TestReformatExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		rows := data.Rows{{data.NewString("03/15/2004")}}
		got := runChain(t, p, data.Schema{"DATE"}, rows, nil,
			templates.Reformat("a2edate", "DATE"))
		if got[0][0].Str() != "15/03/2004" {
			t.Errorf("reformat = %v", got[0][0])
		}
	})
}

func TestProjectExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		rows := data.Rows{{data.NewInt(1), data.NewString("drop me")}}
		got := runChain(t, p, data.Schema{"K", "X"}, rows, nil, templates.ProjectOut("X"))
		if len(got) != 1 || len(got[0]) != 1 || got[0][0].Int() != 1 {
			t.Errorf("project result = %v", got)
		}
	})
}

func TestAggregateExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		rows := data.Rows{
			{data.NewInt(1), data.NewFloat(10)},
			{data.NewInt(1), data.NewFloat(20)},
			{data.NewInt(2), data.NewFloat(5)},
			{data.NewInt(2), data.Null}, // NULLs are skipped by sum
		}
		got := runChain(t, p, data.Schema{"K", "V"}, rows, nil,
			templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "TOTV", 0.5))
		if len(got) != 2 {
			t.Fatalf("aggregate groups = %v", got)
		}
		sums := map[int64]float64{}
		for _, r := range got {
			sums[r[0].Int()] = r[1].Float()
		}
		if sums[1] != 30 || sums[2] != 5 {
			t.Errorf("sums = %v", sums)
		}
	})
}

func TestAggregateKinds(t *testing.T) {
	rows := data.Rows{
		{data.NewInt(1), data.NewFloat(10)},
		{data.NewInt(1), data.NewFloat(20)},
		{data.NewInt(1), data.Null},
	}
	cases := []struct {
		agg  workflow.AggKind
		want float64
	}{
		{workflow.AggSum, 30},
		{workflow.AggCount, 3}, // count counts rows
		{workflow.AggMin, 10},
		{workflow.AggMax, 20},
		{workflow.AggAvg, 15}, // avg over non-NULL
	}
	for _, c := range cases {
		got := runChain(t, 1, data.Schema{"K", "V"}, rows, nil,
			templates.Aggregate([]string{"K"}, c.agg, "V", "OUT", 0.5))
		if len(got) != 1 || got[0][1].Float() != c.want {
			t.Errorf("%v = %v, want %v", c.agg, got, c.want)
		}
	}
}

func TestAggregateAllNullGroup(t *testing.T) {
	rows := data.Rows{{data.NewInt(1), data.Null}}
	got := runChain(t, 1, data.Schema{"K", "V"}, rows, nil,
		templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "OUT", 0.5))
	if len(got) != 1 || !got[0][1].IsNull() {
		t.Errorf("sum of all-NULL group = %v, want NULL", got)
	}
}

func TestSurrogateKeyExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		lookup := data.NewMemoryRecordset("LKP", data.Schema{"K", "SK"}).MustLoad(data.Rows{
			{data.NewInt(1), data.NewInt(1001)},
			{data.NewInt(2), data.NewInt(1002)},
		})
		rows := data.Rows{{data.NewInt(2), data.NewFloat(7)}}
		got := runChain(t, p, data.Schema{"K", "V"}, rows,
			map[string]data.Recordset{"LKP": lookup},
			templates.SurrogateKey("K", "SK", "LKP"))
		if len(got) != 1 {
			t.Fatalf("sk result = %v", got)
		}
		// Output schema {V, SK}.
		if got[0][1].Int() != 1002 {
			t.Errorf("surrogate = %v", got[0])
		}
	})
}

func TestSurrogateKeyMissingKey(t *testing.T) {
	lookup := data.NewMemoryRecordset("LKP", data.Schema{"K", "SK"})
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "SRC", Schema: data.Schema{"K"}, IsSource: true})
	sk := g.AddActivity(templates.SurrogateKey("K", "SK", "LKP"))
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"SK"}, IsTarget: true})
	g.MustAddEdge(src, sk)
	g.MustAddEdge(sk, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	e := New(map[string]data.Recordset{
		"SRC": data.NewMemoryRecordset("SRC", data.Schema{"K"}).MustLoad(data.Rows{{data.NewInt(9)}}),
		"LKP": lookup,
	})
	_, err := e.Run(context.Background(), g)
	if err == nil || !strings.Contains(err.Error(), "missing from lookup") {
		t.Errorf("missing production key should fail loudly, got %v", err)
	}
}

func TestPKCheckGroupBased(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		rows := data.Rows{
			{data.NewInt(1), data.NewFloat(1)},
			{data.NewInt(1), data.NewFloat(2)}, // duplicate key: both rejected
			{data.NewInt(2), data.NewFloat(3)},
		}
		got := runChain(t, p, data.Schema{"K", "V"}, rows, nil, templates.PKCheck(0.8, "K"))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("group-based pkcheck = %v", got)
		}
	})
}

func TestPKCheckLookupBased(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		existing := data.NewMemoryRecordset("DWK", data.Schema{"K"}).MustLoad(data.Rows{
			{data.NewInt(1)},
		})
		rows := data.Rows{
			{data.NewInt(1), data.NewFloat(1)}, // already in DW: rejected
			{data.NewInt(2), data.NewFloat(2)},
		}
		got := runChain(t, p, data.Schema{"K", "V"}, rows,
			map[string]data.Recordset{"DWK": existing},
			templates.PKCheckAgainst("DWK", 0.8, "K"))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("lookup-based pkcheck = %v", got)
		}
	})
}

func TestDistinctExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, p int) {
		rows := data.Rows{
			{data.NewInt(1)}, {data.NewInt(1)}, {data.NewInt(2)},
		}
		got := runChain(t, p, data.Schema{"K"}, rows, nil, templates.Distinct(0.7))
		if len(got) != 2 {
			t.Errorf("distinct = %v", got)
		}
	})
}

// TestMergedExecution: the engine runs only what a plan can hold. Fig. 1
// with $2€ and A2E folded into a MER package is refused at P ∈ {1, 2},
// plainly and under a checkpoint runner, with an error naming the package,
// before a source is scanned, a target loaded or a staging directory made.
func TestMergedExecution(t *testing.T) {
	sc := templates.Fig1Scenario(20, 60)
	var d2e, a2e workflow.NodeID
	for _, id := range sc.Graph.Activities() {
		if a := sc.Graph.Node(id).Act; a.Sem.Op == workflow.OpFunc && a.Sem.DropArgs {
			d2e = id
		} else if a.Sem.Op == workflow.OpFunc && a.InPlace() {
			a2e = id
		}
	}
	mer, err := transitions.Merge(sc.Graph, d2e, a2e)
	if err != nil {
		t.Fatal(err)
	}
	label := mer.Graph.Node(mer.Dirty[0]).Label()
	for _, p := range []int{1, 2} {
		bindings := sc.Bind()
		scans := 0
		for _, name := range []string{"PARTS1", "PARTS2"} {
			bindings[name] = countingRecordset{Recordset: bindings[name], scans: &scans}
		}
		target := data.NewMemoryRecordset("DW.PARTS", data.Schema{"PKEY", "SOURCE", "DATE", "ECOST"})
		bindings["DW.PARTS"] = target
		e := New(bindings, WithPartitions(p))
		dir := filepath.Join(t.TempDir(), "stage")
		for _, run := range []func(context.Context, *workflow.Graph) (*RunResult, error){e.Run, NewCheckpointRunner(e, dir).Run} {
			if _, err := run(context.Background(), mer.Graph); err == nil || !strings.Contains(err.Error(), label) {
				t.Errorf("P=%d: err = %v, want one naming the package %s", p, err, label)
			}
		}
		if rows, _ := target.Scan(); scans != 0 || len(rows) != 0 {
			t.Errorf("P=%d: refused runs scanned %d sources and loaded %d rows", p, scans, len(rows))
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("P=%d: refused checkpoint run left %s (stat: %v)", p, dir, err)
		}
	}
}

// TestDistinctKeepsIDsFloatCannotTell: 2⁵³ and 2⁵³+1 are two ids that
// float64 rounds to one number. DISTINCT keeps both rows, so the filter
// behind it finds the second, at one partition and at four.
func TestDistinctKeepsIDsFloatCannotTell(t *testing.T) {
	g, err := dsl.Parse(`
recordset SRC source rows=2 schema=ID,V
activity a1 distinct sel=0.9
activity a2 filter pred="(ID=9007199254740993)" sel=0.5
recordset DW.T target schema=ID,V
flow SRC -> a1
flow a1 -> a2
flow a2 -> DW.T
`)
	if err != nil {
		t.Fatal(err)
	}
	rows := data.Rows{{data.NewInt(1 << 53), data.NewString("x")}, {data.NewInt(1<<53 + 1), data.NewString("x")}}
	for _, p := range []int{1, 4} {
		bind := map[string]data.Recordset{"SRC": data.NewMemoryRecordset("SRC", data.Schema{"ID", "V"}).MustLoad(rows)}
		res, err := New(bind, WithPartitions(p)).Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Targets["DW.T"]
		if len(got) != 1 || got[0][0].Kind() != data.KindInt || got[0][0].Int() != 1<<53+1 || got[0][1].Str() != "x" {
			t.Errorf("P=%d: loaded %v, want (9007199254740993, x)", p, got)
		}
	}
}
