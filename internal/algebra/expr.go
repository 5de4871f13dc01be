// Package algebra implements the "relational algebra extended with
// functions" that the paper uses for activity semantics (§2.1): a small
// expression language over records (attribute references, constants,
// comparisons, arithmetic, boolean connectives and scalar function calls)
// plus a registry of named data-manipulation functions such as the paper's
// $2€ currency conversion and A2E date reformatting.
//
// Expressions serve two roles: the execution engine evaluates them against
// records, and the optimizer reads their referenced attributes to derive
// functionality schemata.
package algebra

import (
	"fmt"
	"strings"

	"etlopt/internal/data"
)

// Expr is a scalar expression evaluated against one record.
type Expr interface {
	// Eval computes the expression's value for a record laid out by schema.
	Eval(schema data.Schema, rec data.Record) (data.Value, error)
	// Attrs appends the reference attribute names the expression reads.
	Attrs(dst []string) []string
	// String renders the expression in a stable textual form.
	String() string
}

// Attr references an attribute by reference name.
type Attr struct{ Name string }

// Eval implements Expr.
func (a Attr) Eval(schema data.Schema, rec data.Record) (data.Value, error) {
	i := schema.Index(a.Name)
	if i < 0 || i >= len(rec) {
		return data.Null, fmt.Errorf("algebra: attribute %q not in schema [%s]", a.Name, schema)
	}
	return rec[i], nil
}

// Attrs implements Expr.
func (a Attr) Attrs(dst []string) []string { return append(dst, a.Name) }

// String implements Expr.
func (a Attr) String() string { return a.Name }

// Const is a literal value.
type Const struct{ Value data.Value }

// Eval implements Expr.
func (c Const) Eval(data.Schema, data.Record) (data.Value, error) { return c.Value, nil }

// Attrs implements Expr.
func (c Const) Attrs(dst []string) []string { return dst }

// String implements Expr.
func (c Const) String() string {
	if c.Value.Kind() == data.KindString {
		return "'" + c.Value.Str() + "'"
	}
	return c.Value.String()
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the operator's SQL-style spelling.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// ParseCmpOp parses a comparison operator spelling.
func ParseCmpOp(s string) (CmpOp, error) {
	switch s {
	case "=", "==":
		return EQ, nil
	case "<>", "!=":
		return NE, nil
	case "<":
		return LT, nil
	case "<=":
		return LE, nil
	case ">":
		return GT, nil
	case ">=":
		return GE, nil
	default:
		return EQ, fmt.Errorf("algebra: unknown comparison operator %q", s)
	}
}

// Cmp compares two sub-expressions by data.Value.Compare, the one order on
// values. A comparison involving NULL evaluates to false (SQL-style
// rejection), except NE which is true when exactly one side is NULL.
type Cmp struct {
	Op          CmpOp
	Left, Right Expr
}

// Eval implements Expr.
func (c Cmp) Eval(schema data.Schema, rec data.Record) (data.Value, error) {
	l, err := c.Left.Eval(schema, rec)
	if err != nil {
		return data.Null, err
	}
	r, err := c.Right.Eval(schema, rec)
	if err != nil {
		return data.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return data.NewBool(c.Op == NE && l.IsNull() != r.IsNull()), nil
	}
	cmp := l.Compare(r)
	var out bool
	switch c.Op {
	case EQ:
		out = cmp == 0
	case NE:
		out = cmp != 0
	case LT:
		out = cmp < 0
	case LE:
		out = cmp <= 0
	case GT:
		out = cmp > 0
	case GE:
		out = cmp >= 0
	}
	return data.NewBool(out), nil
}

// Attrs implements Expr.
func (c Cmp) Attrs(dst []string) []string { return c.Right.Attrs(c.Left.Attrs(dst)) }

// String implements Expr. Comparisons parenthesize themselves so that the
// rendering is precedence-unambiguous and round-trips through the
// predicate parser.
func (c Cmp) String() string {
	return fmt.Sprintf("(%s%s%s)", c.Left, c.Op, c.Right)
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the operator symbol.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return "?"
	}
}

// Arith combines two numeric sub-expressions. NULL operands yield NULL.
type Arith struct {
	Op          ArithOp
	Left, Right Expr
}

// Eval implements Expr.
func (a Arith) Eval(schema data.Schema, rec data.Record) (data.Value, error) {
	l, err := a.Left.Eval(schema, rec)
	if err != nil {
		return data.Null, err
	}
	r, err := a.Right.Eval(schema, rec)
	if err != nil {
		return data.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return data.Null, nil
	}
	x, y := l.Float(), r.Float()
	var out float64
	switch a.Op {
	case Add:
		out = x + y
	case Sub:
		out = x - y
	case Mul:
		out = x * y
	case Div:
		if y == 0 {
			return data.Null, fmt.Errorf("algebra: division by zero in %s", a)
		}
		out = x / y
	}
	if l.Kind() == data.KindInt && r.Kind() == data.KindInt && a.Op != Div {
		return data.NewInt(int64(out)), nil
	}
	return data.NewFloat(out), nil
}

// Attrs implements Expr.
func (a Arith) Attrs(dst []string) []string { return a.Right.Attrs(a.Left.Attrs(dst)) }

// String implements Expr.
func (a Arith) String() string {
	return fmt.Sprintf("(%s%s%s)", a.Left, a.Op, a.Right)
}

// BoolOp enumerates boolean connectives.
type BoolOp uint8

// Boolean connectives.
const (
	And BoolOp = iota
	Or
)

// String returns the connective's spelling.
func (op BoolOp) String() string {
	if op == And {
		return "and"
	}
	return "or"
}

// Logic combines boolean sub-expressions.
type Logic struct {
	Op          BoolOp
	Left, Right Expr
}

// Eval implements Expr.
func (l Logic) Eval(schema data.Schema, rec data.Record) (data.Value, error) {
	a, err := l.Left.Eval(schema, rec)
	if err != nil {
		return data.Null, err
	}
	// Short-circuit.
	if l.Op == And && !a.Bool() {
		return data.NewBool(false), nil
	}
	if l.Op == Or && a.Bool() {
		return data.NewBool(true), nil
	}
	b, err := l.Right.Eval(schema, rec)
	if err != nil {
		return data.Null, err
	}
	return data.NewBool(b.Bool()), nil
}

// Attrs implements Expr.
func (l Logic) Attrs(dst []string) []string { return l.Right.Attrs(l.Left.Attrs(dst)) }

// String implements Expr.
func (l Logic) String() string {
	return fmt.Sprintf("(%s %s %s)", l.Left, l.Op, l.Right)
}

// Not negates a boolean sub-expression.
type Not struct{ Inner Expr }

// Eval implements Expr.
func (n Not) Eval(schema data.Schema, rec data.Record) (data.Value, error) {
	v, err := n.Inner.Eval(schema, rec)
	if err != nil {
		return data.Null, err
	}
	return data.NewBool(!v.Bool()), nil
}

// Attrs implements Expr.
func (n Not) Attrs(dst []string) []string { return n.Inner.Attrs(dst) }

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("not(%s)", n.Inner) }

// IsNull tests whether a sub-expression evaluates to NULL.
type IsNull struct{ Inner Expr }

// Eval implements Expr.
func (e IsNull) Eval(schema data.Schema, rec data.Record) (data.Value, error) {
	v, err := e.Inner.Eval(schema, rec)
	if err != nil {
		return data.Null, err
	}
	return data.NewBool(v.IsNull()), nil
}

// Attrs implements Expr.
func (e IsNull) Attrs(dst []string) []string { return e.Inner.Attrs(dst) }

// String implements Expr.
func (e IsNull) String() string { return fmt.Sprintf("isnull(%s)", e.Inner) }

// Call invokes a registered scalar function with argument expressions.
type Call struct {
	Fn   string
	Args []Expr
}

// Eval implements Expr.
func (c Call) Eval(schema data.Schema, rec data.Record) (data.Value, error) {
	fn, ok := LookupFunc(c.Fn)
	if !ok {
		return data.Null, fmt.Errorf("algebra: unknown function %q", c.Fn)
	}
	args := make([]data.Value, len(c.Args))
	for i, e := range c.Args {
		v, err := e.Eval(schema, rec)
		if err != nil {
			return data.Null, err
		}
		args[i] = v
	}
	return fn.Apply(args)
}

// Attrs implements Expr.
func (c Call) Attrs(dst []string) []string {
	for _, e := range c.Args {
		dst = e.Attrs(dst)
	}
	return dst
}

// String implements Expr.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, e := range c.Args {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(parts, ","))
}

// AttrSet returns the deduplicated reference attributes an expression reads,
// preserving first-appearance order.
func AttrSet(e Expr) []string {
	raw := e.Attrs(nil)
	seen := make(map[string]bool, len(raw))
	out := raw[:0]
	for _, a := range raw {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
