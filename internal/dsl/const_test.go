package dsl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// typed renders e with each constant's kind beside its value, so two
// expressions render alike only when their constants have the same kinds
// and values.
func typed(e algebra.Expr) string {
	switch x := e.(type) {
	case algebra.Const:
		return fmt.Sprintf("%s:%s", x.Value.Kind(), x.Value)
	case algebra.Attr:
		return "@" + x.Name
	case algebra.Cmp:
		return fmt.Sprintf("cmp%d(%s,%s)", x.Op, typed(x.Left), typed(x.Right))
	case algebra.Arith:
		return fmt.Sprintf("arith%d(%s,%s)", x.Op, typed(x.Left), typed(x.Right))
	case algebra.Logic:
		return fmt.Sprintf("logic%d(%s,%s)", x.Op, typed(x.Left), typed(x.Right))
	case algebra.Not:
		return "not(" + typed(x.Inner) + ")"
	case algebra.IsNull:
		return "isnull(" + typed(x.Inner) + ")"
	case algebra.Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = typed(a)
		}
		return x.Fn + "(" + strings.Join(args, ",") + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// filterPreds returns the predicates of g's filters in activity order.
func filterPreds(g *workflow.Graph) []algebra.Expr {
	var preds []algebra.Expr
	for _, id := range g.Activities() {
		if a := g.Node(id).Act; a.Sem.Op == workflow.OpFilter {
			preds = append(preds, a.Sem.Pred)
		}
	}
	return preds
}

// TestSerializeKeepsConstantKinds: Parse(Serialize(g)) gives back every
// constant with its kind and value. (X+2)>X and (X+2.0)>X differ at
// X = 2⁶⁰ — int addition is exact, the float sum rounds back to X — so a
// float written as "2" changes what the re-read workflow loads.
func TestSerializeKeepsConstantKinds(t *testing.T) {
	for _, pred := range []string{
		"(X+2.0)>X", "(X+2)>X", "X > 1e+21", "X >= -0.0", "X > 1.5 and X < 2.0",
		"X * 3.0 = 9", "S = 'a,b'", "B = true",
	} {
		g, err := Parse(fmt.Sprintf("recordset S source rows=2 schema=X,S,B\nactivity f filter pred=%q\nrecordset T target schema=X,S,B\nflow S -> f -> T\n", pred))
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		text, err := Serialize(g)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: re-parse of\n%s: %v", pred, text, err)
		}
		want, got := typed(filterPreds(g)[0]), typed(filterPreds(back)[0])
		if got != want {
			t.Errorf("%s: serialized as %s, read back as %s, want %s", pred, filterPreds(g)[0], got, want)
		}
	}
}

// filterGraph is S → σ(pred) → T over one column X.
func filterGraph(t *testing.T, pred algebra.Expr) *workflow.Graph {
	t.Helper()
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"X"}, Rows: 2, IsSource: true})
	f := g.AddActivity(templates.Filter(pred, 0.5))
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"X"}, IsTarget: true})
	g.MustAddEdge(src, f)
	g.MustAddEdge(f, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSerializeRefusesUnspellableConstants: a constant the predicate
// language cannot spell back makes Serialize fail naming it, rather than
// write a workflow that reads back as another.
func TestSerializeRefusesUnspellableConstants(t *testing.T) {
	for _, c := range []struct {
		v    data.Value
		want string
	}{
		{data.Null, "NULL"},
		{data.NewDate(2005, 4, 5), "2005-04-05"},
		{data.NewFloat(math.NaN()), "NaN"},
		{data.NewFloat(math.Inf(-1)), "-Inf"},
	} {
		pred := algebra.Cmp{Op: algebra.EQ, Left: algebra.Attr{Name: "X"}, Right: algebra.Const{Value: c.v}}
		if _, err := Serialize(filterGraph(t, pred)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a refusal naming %s", pred, err, c.want)
		}
	}
}

// TestStringConstantsRoundTrip: a filter whose string constants hold a
// double quote, a backslash, a newline and a single quote is written by
// Serialize and read back by Parse with every constant unchanged.
func TestStringConstantsRoundTrip(t *testing.T) {
	var pred algebra.Expr = algebra.Cmp{Op: algebra.NE, Left: algebra.Attr{Name: "X"}, Right: algebra.Const{Value: data.NewString("")}}
	for _, s := range []string{`say "hi"`, `C:\tmp\`, "two\nlines", "it's", `'"\`} {
		cmp := algebra.Cmp{Op: algebra.EQ, Left: algebra.Attr{Name: "X"}, Right: algebra.Const{Value: data.NewString(s)}}
		pred = algebra.Logic{Op: algebra.Or, Left: pred, Right: cmp}
	}
	text, err := Serialize(filterGraph(t, pred))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of\n%s: %v", text, err)
	}
	if got, want := typed(filterPreds(g)[0]), typed(pred); got != want {
		t.Errorf("read back as %s, want %s", got, want)
	}
}

// FuzzConstRoundTrip: over every kind a constant can hold, in the places a
// constant stands in a predicate, the constant's text read back by
// ParsePredicate — and the whole workflow by Parse(Serialize(g)) — gives
// the same expression with the same kinds, or Serialize refuses it; and
// it refuses only a constant whose text does not read back, which a string
// always does.
func FuzzConstRoundTrip(f *testing.F) {
	f.Add(uint8(data.KindInt), int64(2), 0.0, "")
	f.Add(uint8(data.KindInt), int64(math.MinInt64), 0.0, "")
	f.Add(uint8(data.KindFloat), int64(0), 2.0, "")
	f.Add(uint8(data.KindFloat), int64(0), math.Copysign(0, -1), "")
	f.Add(uint8(data.KindFloat), int64(0), 1e21, "")
	f.Add(uint8(data.KindFloat), int64(0), -2.5e-300, "")
	f.Add(uint8(data.KindFloat), int64(0), math.Inf(1), "")
	f.Add(uint8(data.KindString), int64(0), 0.0, "a,b\n")
	f.Add(uint8(data.KindString), int64(0), 0.0, "it's")
	f.Add(uint8(data.KindBool), int64(1), 0.0, "")
	f.Add(uint8(data.KindDate), int64(12877), 0.0, "")
	f.Add(uint8(data.KindNull), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string) {
		var v data.Value
		switch data.Kind(kind % 6) {
		case data.KindNull:
			v = data.Null
		case data.KindInt:
			v = data.NewInt(i)
		case data.KindFloat:
			v = data.NewFloat(fl)
		case data.KindString:
			v = data.NewString(s)
		case data.KindBool:
			v = data.NewBool(i&1 == 1)
		case data.KindDate:
			v = data.NewDateFromDays(i % 1_000_000)
		}
		c, x := algebra.Const{Value: v}, algebra.Attr{Name: "X"}
		for _, pred := range []algebra.Expr{
			algebra.Cmp{Op: algebra.GE, Left: x, Right: c},
			algebra.Cmp{Op: algebra.LT, Left: c, Right: x},
			algebra.Cmp{Op: algebra.GT, Left: algebra.Arith{Op: algebra.Sub, Left: x, Right: c}, Right: x},
		} {
			want, src := typed(pred), pred.String()
			back, perr := ParsePredicate(src)
			readsBack := perr == nil && typed(back) == want
			if !readsBack && v.Kind() == data.KindString {
				t.Fatalf("%s reads back as %v (%v), want %s", pred, back, perr, want)
			}
			text, err := Serialize(filterGraph(t, pred))
			if err != nil {
				if readsBack {
					t.Fatalf("Serialize refused %s, whose text reads back: %v", pred, err)
				}
				continue
			}
			if !readsBack {
				t.Fatalf("%s reads back as %v (%v), want %s", pred, back, perr, want)
			}
			g, err := Parse(text)
			if err != nil {
				t.Fatalf("re-parse of\n%s: %v", text, err)
			}
			if got := typed(filterPreds(g)[0]); got != want {
				t.Fatalf("workflow round trip of %s gives %s, want %s", pred, got, want)
			}
		}
	})
}
