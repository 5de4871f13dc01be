package engine

import (
	"context"
	"strings"
	"testing"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// runChain executes SRC(schema, rows) → acts → TGT and returns the target
// rows, under the given mode.
func runChain(t *testing.T, mode Mode, schema data.Schema, rows data.Rows,
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
	e := New(bindings, WithMode(mode), WithPartitions(3))
	res, err := e.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Targets["TGT"]
}

func bothModes(t *testing.T, f func(t *testing.T, mode Mode)) {
	t.Run("materialized", func(t *testing.T) { f(t, Materialized) })
	t.Run("parallel", func(t *testing.T) { f(t, Parallel) })
}

func TestFilterExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rows := data.Rows{
			{data.NewInt(1), data.NewFloat(50)},
			{data.NewInt(2), data.NewFloat(150)},
			{data.NewInt(3), data.Null},
		}
		got := runChain(t, mode, data.Schema{"K", "V"}, rows, nil, templates.Threshold("V", 100, 0.5))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("filter result = %v", got)
		}
	})
}

func TestNotNullExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rows := data.Rows{
			{data.NewInt(1), data.Null},
			{data.NewInt(2), data.NewFloat(1)},
		}
		got := runChain(t, mode, data.Schema{"K", "V"}, rows, nil, templates.NotNull(0.9, "V"))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("notnull result = %v", got)
		}
	})
}

func TestConvertExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rows := data.Rows{{data.NewInt(1), data.NewFloat(100)}}
		got := runChain(t, mode, data.Schema{"K", "DCOST"}, rows, nil,
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
	bothModes(t, func(t *testing.T, mode Mode) {
		rows := data.Rows{{data.NewString("03/15/2004")}}
		got := runChain(t, mode, data.Schema{"DATE"}, rows, nil,
			templates.Reformat("a2edate", "DATE"))
		if got[0][0].Str() != "15/03/2004" {
			t.Errorf("reformat = %v", got[0][0])
		}
	})
}

func TestProjectExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rows := data.Rows{{data.NewInt(1), data.NewString("drop me")}}
		got := runChain(t, mode, data.Schema{"K", "X"}, rows, nil, templates.ProjectOut("X"))
		if len(got) != 1 || len(got[0]) != 1 || got[0][0].Int() != 1 {
			t.Errorf("project result = %v", got)
		}
	})
}

func TestAggregateExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rows := data.Rows{
			{data.NewInt(1), data.NewFloat(10)},
			{data.NewInt(1), data.NewFloat(20)},
			{data.NewInt(2), data.NewFloat(5)},
			{data.NewInt(2), data.Null}, // NULLs are skipped by sum
		}
		got := runChain(t, mode, data.Schema{"K", "V"}, rows, nil,
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
		got := runChain(t, Materialized, data.Schema{"K", "V"}, rows, nil,
			templates.Aggregate([]string{"K"}, c.agg, "V", "OUT", 0.5))
		if len(got) != 1 || got[0][1].Float() != c.want {
			t.Errorf("%v = %v, want %v", c.agg, got, c.want)
		}
	}
}

func TestAggregateAllNullGroup(t *testing.T) {
	rows := data.Rows{{data.NewInt(1), data.Null}}
	got := runChain(t, Materialized, data.Schema{"K", "V"}, rows, nil,
		templates.Aggregate([]string{"K"}, workflow.AggSum, "V", "OUT", 0.5))
	if len(got) != 1 || !got[0][1].IsNull() {
		t.Errorf("sum of all-NULL group = %v, want NULL", got)
	}
}

func TestSurrogateKeyExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		lookup := data.NewMemoryRecordset("LKP", data.Schema{"K", "SK"}).MustLoad(data.Rows{
			{data.NewInt(1), data.NewInt(1001)},
			{data.NewInt(2), data.NewInt(1002)},
		})
		rows := data.Rows{{data.NewInt(2), data.NewFloat(7)}}
		got := runChain(t, mode, data.Schema{"K", "V"}, rows,
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
	bothModes(t, func(t *testing.T, mode Mode) {
		rows := data.Rows{
			{data.NewInt(1), data.NewFloat(1)},
			{data.NewInt(1), data.NewFloat(2)}, // duplicate key: both rejected
			{data.NewInt(2), data.NewFloat(3)},
		}
		got := runChain(t, mode, data.Schema{"K", "V"}, rows, nil, templates.PKCheck(0.8, "K"))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("group-based pkcheck = %v", got)
		}
	})
}

func TestPKCheckLookupBased(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		existing := data.NewMemoryRecordset("DWK", data.Schema{"K"}).MustLoad(data.Rows{
			{data.NewInt(1)},
		})
		rows := data.Rows{
			{data.NewInt(1), data.NewFloat(1)}, // already in DW: rejected
			{data.NewInt(2), data.NewFloat(2)},
		}
		got := runChain(t, mode, data.Schema{"K", "V"}, rows,
			map[string]data.Recordset{"DWK": existing},
			templates.PKCheckAgainst("DWK", 0.8, "K"))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("lookup-based pkcheck = %v", got)
		}
	})
}

func TestDistinctExecution(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		rows := data.Rows{
			{data.NewInt(1)}, {data.NewInt(1)}, {data.NewInt(2)},
		}
		got := runChain(t, mode, data.Schema{"K"}, rows, nil, templates.Distinct(0.7))
		if len(got) != 2 {
			t.Errorf("distinct = %v", got)
		}
	})
}

func TestMergedExecution(t *testing.T) {
	// A merged NN+σ package must behave exactly like the sequence.
	nn := templates.NotNull(0.9, "V")
	sigma := templates.Threshold("V", 100, 0.5)
	merged := &workflow.Activity{
		Sem: workflow.Semantics{Op: workflow.OpMerged, Components: []*workflow.Activity{nn, sigma}},
		Fun: data.Schema{"V"},
		Sel: 0.45,
	}
	rows := data.Rows{
		{data.NewFloat(150)}, {data.Null}, {data.NewFloat(50)},
	}
	seq := runChain(t, Materialized, data.Schema{"V"}, rows, nil, templates.NotNull(0.9, "V"), templates.Threshold("V", 100, 0.5))
	pkg := runChain(t, Materialized, data.Schema{"V"}, rows, nil, merged)
	if !seq.EqualMultiset(pkg) {
		t.Errorf("merged package differs from sequence: %v vs %v", seq, pkg)
	}
}
