package algebra

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"etlopt/internal/data"
)

var testSchema = data.Schema{"A", "B", "S"}

func rec(a, b int64, s string) data.Record {
	return data.Record{data.NewInt(a), data.NewInt(b), data.NewString(s)}
}

func mustEval(t *testing.T, e Expr, r data.Record) data.Value {
	t.Helper()
	v, err := e.Eval(testSchema, r)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestAttrEval(t *testing.T) {
	v := mustEval(t, Attr{Name: "B"}, rec(1, 2, "x"))
	if v.Int() != 2 {
		t.Errorf("Attr B = %v", v)
	}
	if _, err := (Attr{Name: "Z"}).Eval(testSchema, rec(1, 2, "x")); err == nil {
		t.Error("unknown attribute should error")
	}
}

func TestCmpOperators(t *testing.T) {
	r := rec(5, 10, "x")
	cases := []struct {
		op   CmpOp
		want bool
	}{
		{EQ, false}, {NE, true}, {LT, true}, {LE, true}, {GT, false}, {GE, false},
	}
	for _, c := range cases {
		e := Cmp{Op: c.op, Left: Attr{Name: "A"}, Right: Attr{Name: "B"}}
		if got := mustEval(t, e, r).Bool(); got != c.want {
			t.Errorf("5 %s 10 = %v, want %v", c.op, got, c.want)
		}
	}
}

// TestCmpExactOn64BitInts: two ints compare as int64s. Through float64,
// which rounds 2⁵³+1 to 2⁵³, the two would be one number.
func TestCmpExactOn64BitInts(t *testing.T) {
	r := rec(1<<53, 1<<53+1, "")
	if e := (Cmp{Op: LT, Left: Attr{Name: "A"}, Right: Const{Value: data.NewInt(1<<53 + 1)}}); !mustEval(t, e, r).Bool() {
		t.Errorf("%s drops A = 2⁵³", e)
	}
	if e := (Cmp{Op: LE, Left: Attr{Name: "B"}, Right: Const{Value: data.NewInt(1 << 53)}}); mustEval(t, e, r).Bool() {
		t.Errorf("%s keeps B = 2⁵³+1", e)
	}
}

func TestCmpNullSemantics(t *testing.T) {
	r := data.Record{data.Null, data.NewInt(1), data.NewString("")}
	// NULL comparisons reject (SQL-style), so a filter on a NULL attribute
	// drops the row — which is what makes σ and NN swappable.
	for _, op := range []CmpOp{EQ, LT, LE, GT, GE} {
		e := Cmp{Op: op, Left: Attr{Name: "A"}, Right: Const{Value: data.NewInt(0)}}
		if mustEval(t, e, r).Bool() {
			t.Errorf("NULL %s 0 should be false", op)
		}
	}
	// NE with exactly one NULL side is true.
	e := Cmp{Op: NE, Left: Attr{Name: "A"}, Right: Const{Value: data.NewInt(0)}}
	if !mustEval(t, e, r).Bool() {
		t.Error("NULL <> 0 should be true")
	}
}

func TestArith(t *testing.T) {
	r := rec(7, 2, "")
	cases := []struct {
		op   ArithOp
		want float64
	}{{Add, 9}, {Sub, 5}, {Mul, 14}, {Div, 3.5}}
	for _, c := range cases {
		e := Arith{Op: c.op, Left: Attr{Name: "A"}, Right: Attr{Name: "B"}}
		if got := mustEval(t, e, r).Float(); got != c.want {
			t.Errorf("7 %s 2 = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestArithIntPreservation(t *testing.T) {
	e := Arith{Op: Add, Left: Const{Value: data.NewInt(1)}, Right: Const{Value: data.NewInt(2)}}
	v := mustEval(t, e, rec(0, 0, ""))
	if v.Kind() != data.KindInt {
		t.Errorf("int+int should stay int, got %v", v.Kind())
	}
	// Division always yields float.
	e = Arith{Op: Div, Left: Const{Value: data.NewInt(4)}, Right: Const{Value: data.NewInt(2)}}
	if v := mustEval(t, e, rec(0, 0, "")); v.Kind() != data.KindFloat {
		t.Errorf("int/int should be float, got %v", v.Kind())
	}
}

// TestArithIntExact: + - * on two ints are int64 arithmetic, not float64
// arithmetic converted back: beyond 2⁵³ the result keeps its last digit,
// and a result int64 cannot hold is an error naming the expression.
func TestArithIntExact(t *testing.T) {
	c := func(v int64) Expr { return Const{Value: data.NewInt(v)} }
	for _, tc := range []struct {
		e    Arith
		want int64
	}{
		{Arith{Op: Add, Left: c(1<<53 + 1), Right: c(0)}, 1<<53 + 1},
		{Arith{Op: Sub, Left: c(1<<53 + 1), Right: c(2)}, 1<<53 - 1},
		{Arith{Op: Mul, Left: c(1<<53 + 1), Right: c(3)}, 3<<53 + 3},
		{Arith{Op: Add, Left: c(math.MaxInt64), Right: c(math.MinInt64)}, -1},
		{Arith{Op: Mul, Left: c(math.MinInt64), Right: c(1)}, math.MinInt64},
	} {
		v, err := tc.e.Eval(nil, nil)
		if err != nil || v.Kind() != data.KindInt || v.Int() != tc.want {
			t.Errorf("%s = %v (%v), %v; want Int(%d)", tc.e, v, v.Kind(), err, tc.want)
		}
	}
	for _, e := range []Arith{
		{Op: Mul, Left: c(4611686018427387905), Right: c(4)},
		{Op: Add, Left: c(math.MaxInt64), Right: c(1)},
		{Op: Sub, Left: c(math.MinInt64), Right: c(1)},
		{Op: Mul, Left: c(math.MinInt64), Right: c(-1)},
		{Op: Mul, Left: c(-1), Right: c(math.MinInt64)},
	} {
		if v, err := e.Eval(nil, nil); err == nil || !strings.Contains(err.Error(), e.String()) {
			t.Errorf("%s = %v, %v; want an overflow error naming the expression", e, v, err)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	e := Arith{Op: Div, Left: Attr{Name: "A"}, Right: Const{Value: data.NewInt(0)}}
	if _, err := e.Eval(testSchema, rec(1, 0, "")); err == nil {
		t.Error("division by zero should error")
	}
}

func TestArithNullPropagation(t *testing.T) {
	r := data.Record{data.Null, data.NewInt(1), data.NewString("")}
	e := Arith{Op: Add, Left: Attr{Name: "A"}, Right: Attr{Name: "B"}}
	if !mustEval(t, e, r).IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
}

func TestLogicShortCircuit(t *testing.T) {
	// Right side would error (division by zero) if evaluated.
	boom := Cmp{Op: GT, Left: Arith{Op: Div, Left: Attr{Name: "A"}, Right: Const{Value: data.NewInt(0)}}, Right: Const{Value: data.NewInt(0)}}
	falseLeft := Cmp{Op: GT, Left: Attr{Name: "A"}, Right: Const{Value: data.NewInt(100)}}
	e := Logic{Op: And, Left: falseLeft, Right: boom}
	if mustEval(t, e, rec(1, 0, "")).Bool() {
		t.Error("false and X should be false")
	}
	trueLeft := Cmp{Op: LT, Left: Attr{Name: "A"}, Right: Const{Value: data.NewInt(100)}}
	e2 := Logic{Op: Or, Left: trueLeft, Right: boom}
	if !mustEval(t, e2, rec(1, 0, "")).Bool() {
		t.Error("true or X should be true")
	}
}

func TestNotAndIsNull(t *testing.T) {
	r := data.Record{data.Null, data.NewInt(1), data.NewString("")}
	if !mustEval(t, IsNull{Inner: Attr{Name: "A"}}, r).Bool() {
		t.Error("isnull(NULL) = false")
	}
	if mustEval(t, IsNull{Inner: Attr{Name: "B"}}, r).Bool() {
		t.Error("isnull(1) = true")
	}
	e := Not{Inner: IsNull{Inner: Attr{Name: "A"}}}
	if mustEval(t, e, r).Bool() {
		t.Error("not(isnull(NULL)) = true")
	}
}

func TestCallEval(t *testing.T) {
	e := Call{Fn: "upper", Args: []Expr{Attr{Name: "S"}}}
	if got := mustEval(t, e, rec(0, 0, "abc")).Str(); got != "ABC" {
		t.Errorf("upper(abc) = %q", got)
	}
	bad := Call{Fn: "no_such_fn", Args: nil}
	if _, err := bad.Eval(testSchema, rec(0, 0, "")); err == nil {
		t.Error("unknown function should error")
	}
}

func TestAttrSetDedup(t *testing.T) {
	e := Logic{Op: And,
		Left:  Cmp{Op: GT, Left: Attr{Name: "A"}, Right: Attr{Name: "B"}},
		Right: Cmp{Op: LT, Left: Attr{Name: "A"}, Right: Const{Value: data.NewInt(9)}},
	}
	got := AttrSet(e)
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("AttrSet = %v, want [A B]", got)
	}
}

func TestExprStringStable(t *testing.T) {
	e := Logic{Op: Or,
		Left:  Cmp{Op: GE, Left: Attr{Name: "A"}, Right: Const{Value: data.NewFloat(1.5)}},
		Right: Not{Inner: IsNull{Inner: Attr{Name: "S"}}},
	}
	want := "((A>=1.5) or not(isnull(S)))"
	if e.String() != want {
		t.Errorf("String = %q, want %q", e.String(), want)
	}
}

func TestConstStringQuoting(t *testing.T) {
	c := Const{Value: data.NewString("x")}
	if c.String() != "'x'" {
		t.Errorf("string const renders %q", c.String())
	}
	n := Const{Value: data.NewInt(7)}
	if n.String() != "7" {
		t.Errorf("int const renders %q", n.String())
	}
}

func TestFunctionsRegistry(t *testing.T) {
	for _, want := range []string{"dollar2euro", "a2edate", "upper", "monthof"} {
		if _, ok := LookupFunc(want); !ok {
			t.Errorf("built-in %q missing from registry", want)
		}
	}
	if !IsBijective("a2edate") || !IsBijective("dollar2euro") {
		t.Error("a2edate and dollar2euro should be bijective")
	}
	if IsBijective("upper") || IsBijective("round") || IsBijective("no_such") {
		t.Error("upper/round/unknown should not be bijective")
	}
}

func TestRegisterFuncDuplicate(t *testing.T) {
	err := RegisterFunc(funcImpl{name: "upper", arity: 1}, false)
	if err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestDollarEuroRoundTrip(t *testing.T) {
	d2e, _ := LookupFunc("dollar2euro")
	e2d, _ := LookupFunc("euro2dollar")
	f := func(cents int64) bool {
		v := data.NewFloat(float64(cents) / 100)
		eu, err := d2e.Apply([]data.Value{v})
		if err != nil {
			return false
		}
		back, err := e2d.Apply([]data.Value{eu})
		if err != nil {
			return false
		}
		diff := math.Abs(back.Float() - v.Float())
		tol := 1e-9 * (1 + math.Abs(v.Float()))
		return diff <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestA2EDateBijection(t *testing.T) {
	a2e, _ := LookupFunc("a2edate")
	e2a, _ := LookupFunc("e2adate")
	in := data.NewString("03/15/2004") // MM/DD/YYYY
	eu, err := a2e.Apply([]data.Value{in})
	if err != nil {
		t.Fatal(err)
	}
	if eu.Str() != "15/03/2004" {
		t.Errorf("a2edate = %q", eu.Str())
	}
	back, err := e2a.Apply([]data.Value{eu})
	if err != nil {
		t.Fatal(err)
	}
	if back.Str() != in.Str() {
		t.Errorf("round trip = %q", back.Str())
	}
	// NULL passes through.
	if v, err := a2e.Apply([]data.Value{data.Null}); err != nil || !v.IsNull() {
		t.Errorf("a2edate(NULL) = %v, %v", v, err)
	}
	// Malformed input errors.
	if _, err := a2e.Apply([]data.Value{data.NewString("2004-03-15")}); err == nil {
		t.Error("a2edate on ISO format should error")
	}
}

// TestDateReformatAcceptedSet pins what a2edate and e2adate accept —
// exactly two "/", whatever lies between them — the error text, and that
// a reformat allocates its result string and nothing else.
func TestDateReformatAcceptedSet(t *testing.T) {
	day := data.NewDate(2004, time.March, 15)
	for _, fn := range []struct{ name, format string }{{"a2edate", "MM/DD/YYYY"}, {"e2adate", "DD/MM/YYYY"}} {
		f, _ := LookupFunc(fn.name)
		for _, c := range []struct {
			in   data.Value
			want string // the result's Str(); "" with err set means an error
			err  string
		}{
			{in: data.NewString("03/15/2004"), want: "15/03/2004"},
			{in: data.NewString("3/5/04"), want: "5/3/04"},
			{in: data.NewString("//"), want: "//"},
			{in: data.NewString("a//c"), want: "/a/c"},
			{in: data.NewString(""), err: fn.name + `: "" is not ` + fn.format},
			{in: data.NewString("1/2"), err: fn.name + `: "1/2" is not ` + fn.format},
			{in: data.NewString("1/2/3/4"), err: fn.name + `: "1/2/3/4" is not ` + fn.format},
			{in: data.NewString("2004-03-15"), err: fn.name + `: "2004-03-15" is not ` + fn.format},
			{in: data.NewInt(3), err: fn.name + ": unsupported kind int"},
		} {
			got, err := f.Apply([]data.Value{c.in})
			switch {
			case c.err != "":
				if err == nil || err.Error() != c.err || !got.IsNull() {
					t.Errorf("%s(%v) = %v, %v; want NULL and error %q", fn.name, c.in, got, err, c.err)
				}
			case err != nil || got.Kind() != data.KindString || got.Str() != c.want:
				t.Errorf("%s(%v) = %v, %v; want %q", fn.name, c.in, got, err, c.want)
			}
		}
		for _, same := range []data.Value{data.Null, day} {
			if got, err := f.Apply([]data.Value{same}); err != nil || got.Kind() != same.Kind() || !got.Equal(same) {
				t.Errorf("%s(%v) = %v, %v; want it passed through", fn.name, same, got, err)
			}
		}
		args := []data.Value{data.NewString("03/15/2004")}
		if n := testing.AllocsPerRun(100, func() { f.Apply(args) }); n != 1 {
			t.Errorf("%s allocates %v times per call, want 1 (the result string)", fn.name, n)
		}
	}
}

func TestBuiltinNullPreservation(t *testing.T) {
	// Every built-in scalar function must propagate NULL, the contract that
	// lets not-null checks swap across function applications.
	for name, fn := range registry {
		args := make([]data.Value, fn.Arity())
		v, err := fn.Apply(args)
		if err != nil {
			t.Errorf("%s(NULLs) errored: %v", name, err)
			continue
		}
		if !v.IsNull() {
			t.Errorf("%s(NULLs) = %v, want NULL", name, v)
		}
	}
}

func TestRound(t *testing.T) {
	fn, _ := LookupFunc("round")
	cases := map[float64]int64{1.4: 1, 1.5: 2, -1.4: -1, -1.5: -2, 0: 0}
	for in, want := range cases {
		v, err := fn.Apply([]data.Value{data.NewFloat(in)})
		if err != nil {
			t.Fatal(err)
		}
		if v.Int() != want {
			t.Errorf("round(%v) = %v, want %d", in, v, want)
		}
	}
}

func TestMonthOf(t *testing.T) {
	fn, _ := LookupFunc("monthof")
	v, err := fn.Apply([]data.Value{data.NewString("2004-03-15")})
	if err != nil || v.Str() != "2004-03" {
		t.Errorf("monthof(2004-03-15) = %v, %v", v, err)
	}
	if _, err := fn.Apply([]data.Value{data.NewString("bogus")}); err == nil {
		t.Error("monthof(bogus) should error")
	}
}

func TestConcatAndTrim(t *testing.T) {
	concat, _ := LookupFunc("concat")
	v, err := concat.Apply([]data.Value{data.NewString("a"), data.NewString("b")})
	if err != nil || v.Str() != "ab" {
		t.Errorf("concat = %v, %v", v, err)
	}
	trim, _ := LookupFunc("trim")
	v, err = trim.Apply([]data.Value{data.NewString("  x ")})
	if err != nil || v.Str() != "x" {
		t.Errorf("trim = %v, %v", v, err)
	}
}

func TestArityMismatch(t *testing.T) {
	fn, _ := LookupFunc("upper")
	if _, err := fn.Apply(nil); err == nil || !strings.Contains(err.Error(), "expects") {
		t.Errorf("arity mismatch should error, got %v", err)
	}
}
