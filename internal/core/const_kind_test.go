package core

import (
	"context"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/workflow"
)

// TestSearchKeepsIntAndFloatFiltersApart: σ((X+2)>X) and σ((X+2.0)>X)
// differ at X = 2⁶⁰ — int addition is exact, the float sum rounds back
// to X — so they are not homologous: no search may factorize them into
// one filter behind the union. The written plan loads 2 rows (5 from S1,
// 7 from S2); so must every plan the searches return.
func TestSearchKeepsIntAndFloatFiltersApart(t *testing.T) {
	g, err := dsl.Parse(`recordset S1 source rows=1 schema=X
recordset S2 source rows=2 schema=X
activity f1 filter pred="(X+2)>X"
activity f2 filter pred="(X+2.0)>X"
activity u union
recordset T target schema=X
flow S1 -> f1 -> u
flow S2 -> f2 -> u
flow u -> T
`)
	if err != nil {
		t.Fatal(err)
	}
	bind := func() map[string]data.Recordset {
		return map[string]data.Recordset{
			"S1": data.NewMemoryRecordset("S1", data.Schema{"X"}).MustLoad(data.Rows{{data.NewInt(5)}}),
			"S2": data.NewMemoryRecordset("S2", data.Schema{"X"}).MustLoad(data.Rows{{data.NewInt(7)}, {data.NewInt(1 << 60)}}),
		}
	}
	for _, s := range []struct {
		name   string
		search func(context.Context, *workflow.Graph, Options) (*Result, error)
	}{{"ES", Exhaustive}, {"HS", Heuristic}, {"HS-Greedy", HSGreedy}} {
		name := s.name
		res, err := s.search(context.Background(), g, Options{MaxStates: 5000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run, err := engine.New(bind()).Run(context.Background(), res.Best)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(run.Targets["T"]); got != 2 {
			t.Errorf("%s: plan %s loads %d rows, want 2 as written", name, res.Best.Signature(), got)
		}
	}
}
