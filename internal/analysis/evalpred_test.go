package analysis

import (
	"math"
	"testing"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
)

// domainAttr is one attribute's abstract domain in a verdict case: its
// value interval, whether it may be NULL, and whether its values are ints
// (else floats).
type domainAttr struct {
	lo, hi float64
	null   bool
	ints   bool
}

// drawValues returns concrete values the domain admits: each finite
// endpoint, its neighbour inside the interval, an interior value, and NULL
// where the domain may be null. An unbounded side is drawn far out.
func drawValues(d domainAttr) []data.Value {
	lo, hi := d.lo, d.hi
	if math.IsInf(lo, -1) {
		lo = math.Min(hi, 0) - 1e6
	}
	if math.IsInf(hi, 1) {
		hi = math.Max(lo, 0) + 1e6
	}
	var out []data.Value
	if d.ints {
		l, h := int64(math.Ceil(lo)), int64(math.Floor(hi))
		for _, v := range []int64{l, l + 1, l + (h-l)/2, h - 1, h} {
			if v >= l && v <= h && (len(out) == 0 || out[len(out)-1].Int() < v) {
				out = append(out, data.NewInt(v))
			}
		}
	} else {
		for _, v := range []float64{lo, math.Nextafter(lo, hi), lo + (hi-lo)/2, math.Nextafter(hi, lo), hi} {
			out = append(out, data.NewFloat(v))
		}
	}
	if d.null {
		out = append(out, data.Null)
	}
	return out
}

var triName = map[tri]string{triUnknown: "unknown", triTrue: "true", triFalse: "false"}

// TestEvalPredVerdictsHoldOnTheDomain covers the three-valued predicate
// evaluation etlvet's dead-filter and unsatisfiable-guard verdicts rest on
// (evalPred, evalCmp, exprInterval, and refinePred with its mirror): each
// case pins a verdict, and every triTrue or triFalse is checked against
// algebra's evaluation on rows drawn from the domain. A row that survives
// the predicate must also lie in the domain refinePred narrows to.
func TestEvalPredVerdictsHoldOnTheDomain(t *testing.T) {
	const p53 = 1 << 53
	inf := math.Inf(1)
	small := domainAttr{lo: 0, hi: 10, ints: true}
	nullable := domainAttr{lo: 0, hi: 10, null: true, ints: true}
	for _, c := range []struct {
		pred  string
		attrs map[string]domainAttr
		want  tri
	}{
		// Connectives.
		{"V >= 0 and V <= 10", map[string]domainAttr{"V": small}, triTrue},
		{"V >= 0 and V > 20", map[string]domainAttr{"V": small}, triFalse},
		{"V > 5 and V >= 0", map[string]domainAttr{"V": small}, triUnknown},
		{"V > 20 or V <= 10", map[string]domainAttr{"V": small}, triTrue},
		{"V > 20 or V < 0", map[string]domainAttr{"V": small}, triFalse},
		{"V > 5 or V < 0", map[string]domainAttr{"V": small}, triUnknown},
		{"not(V > 20)", map[string]domainAttr{"V": small}, triTrue},
		{"not(V <= 10)", map[string]domainAttr{"V": small}, triFalse},
		{"not(V > 5)", map[string]domainAttr{"V": small}, triUnknown},
		// A NULL row fails V>20, so not() passes it: still true throughout.
		{"not(V > 20)", map[string]domainAttr{"V": nullable}, triTrue},
		{"isnull(V)", map[string]domainAttr{"V": small}, triFalse},
		{"isnull(V)", map[string]domainAttr{"V": nullable}, triUnknown},
		{"not(isnull(V))", map[string]domainAttr{"V": small}, triTrue},
		{"isnull(V + 1)", map[string]domainAttr{"V": small}, triUnknown},
		// Constants.
		{"true", map[string]domainAttr{"V": small}, triTrue},
		{"false", map[string]domainAttr{"V": small}, triFalse},
		{"true and V >= 0", map[string]domainAttr{"V": small}, triTrue},
		{"5", map[string]domainAttr{"V": small}, triUnknown},
		{"V = 'x'", map[string]domainAttr{"V": small}, triUnknown},
		{"upper(V) = 3", map[string]domainAttr{"V": small}, triUnknown},
		// Every comparison, with the constant on either side.
		{"V < 11", map[string]domainAttr{"V": small}, triTrue},
		{"V < 0", map[string]domainAttr{"V": small}, triFalse},
		{"V <= 10", map[string]domainAttr{"V": small}, triTrue},
		{"V <= -1", map[string]domainAttr{"V": small}, triFalse},
		{"V > -1", map[string]domainAttr{"V": small}, triTrue},
		{"V > 10", map[string]domainAttr{"V": small}, triFalse},
		{"V >= 0", map[string]domainAttr{"V": small}, triTrue},
		{"V >= 11", map[string]domainAttr{"V": small}, triFalse},
		{"V = 3", map[string]domainAttr{"V": {lo: 3, hi: 3, ints: true}}, triTrue},
		{"V = 30", map[string]domainAttr{"V": small}, triFalse},
		{"V = 3", map[string]domainAttr{"V": small}, triUnknown},
		{"5 < V", map[string]domainAttr{"V": {lo: 6, hi: 10, ints: true}}, triTrue},
		{"20 <= V", map[string]domainAttr{"V": small}, triFalse},
		{"-1 >= V", map[string]domainAttr{"V": small}, triFalse},
		{"10 >= V", map[string]domainAttr{"V": small}, triTrue},
		{"5 < V", map[string]domainAttr{"V": {lo: -inf, hi: inf, null: true}}, triUnknown},
		{"5 >= V", map[string]domainAttr{"V": {lo: -inf, hi: inf, null: true, ints: true}}, triUnknown},
		{"V < 11", map[string]domainAttr{"V": nullable}, triUnknown},
		{"V > 10", map[string]domainAttr{"V": nullable}, triFalse},
		{"V < W", map[string]domainAttr{"V": small, "W": {lo: 11, hi: 20, ints: true}}, triTrue},
		{"V >= W", map[string]domainAttr{"V": small, "W": {lo: 11, hi: 20, null: true, ints: true}}, triFalse},
		{"V = W", map[string]domainAttr{"V": small, "W": small}, triUnknown},
		{"V < 10.5", map[string]domainAttr{"V": {lo: 0, hi: 10}}, triTrue},
		{"V = 2.5", map[string]domainAttr{"V": {lo: 2.5, hi: 2.5}}, triTrue},
		// NE: a row with exactly one NULL side passes it.
		{"V <> W", map[string]domainAttr{"V": {lo: 0, hi: 5, ints: true}, "W": {lo: 6, hi: 10, ints: true}}, triTrue},
		{"V <> W", map[string]domainAttr{"V": {lo: 0, hi: 5, ints: true}, "W": {lo: 6, hi: 10, null: true, ints: true}}, triUnknown},
		{"V <> 3", map[string]domainAttr{"V": {lo: 3, hi: 3, ints: true}}, triFalse},
		{"V <> 3", map[string]domainAttr{"V": {lo: 3, hi: 3, null: true, ints: true}}, triUnknown},
		{"V <> 30", map[string]domainAttr{"V": nullable}, triUnknown},
		{"3 <> V", map[string]domainAttr{"V": {lo: 4, hi: 9, ints: true}}, triTrue},
		// Arithmetic.
		{"V + 1 > 0", map[string]domainAttr{"V": small}, triTrue},
		{"V - 20 >= 0", map[string]domainAttr{"V": small}, triFalse},
		{"V * 2 <= 20", map[string]domainAttr{"V": small}, triTrue},
		{"V * -1 > 0", map[string]domainAttr{"V": small}, triFalse},
		{"V / 2 < 100", map[string]domainAttr{"V": small}, triUnknown},
		{"V + W < 21", map[string]domainAttr{"V": small, "W": small}, triTrue},
		{"V - W > 10", map[string]domainAttr{"V": small, "W": small}, triFalse},
		// Ints beyond 2⁵³: compared exactly, computed exactly.
		{"V = 9007199254740993", map[string]domainAttr{"V": {lo: p53, hi: p53, ints: true}}, triUnknown},
		{"V < 9007199254740993", map[string]domainAttr{"V": {lo: 0, hi: p53 - 2, ints: true}}, triTrue},
		{"V > 9007199254740993", map[string]domainAttr{"V": {lo: 0, hi: p53 - 2, ints: true}}, triFalse},
		{"9007199254740993 > V", map[string]domainAttr{"V": {lo: 0, hi: p53 - 2, ints: true}}, triTrue},
		{"V + 1 = 9007199254740992", map[string]domainAttr{"V": {lo: p53, hi: p53, ints: true}}, triUnknown},
		{"V + 1 > 9007199254740992", map[string]domainAttr{"V": {lo: p53, hi: p53, ints: true}}, triUnknown},
		{"V - 1 = 9007199254740992", map[string]domainAttr{"V": {lo: p53, hi: p53, ints: true}}, triFalse},
		{"V * 3 = 27021597764222976", map[string]domainAttr{"V": {lo: p53, hi: p53 + 2, ints: true}}, triUnknown},
	} {
		pred, err := dsl.ParsePredicate(c.pred)
		if err != nil {
			t.Fatalf("%s: %v", c.pred, err)
		}
		in := &NodeAbs{Attrs: map[string]AttrDomain{}}
		var schema data.Schema
		var values [][]data.Value
		for _, name := range []string{"V", "W"} {
			if d, ok := c.attrs[name]; ok {
				in.Attrs[name] = AttrDomain{Val: Interval{d.lo, d.hi}, MaybeNull: d.null, GenBy: -1}
				schema = append(schema, name)
				values = append(values, drawValues(d))
			}
		}
		got := evalPred(pred, in)
		if got != c.want {
			t.Errorf("%s over %v: evalPred = %s, want %s", c.pred, c.attrs, triName[got], triName[c.want])
		}
		refined := refinePred(pred, copyAttrs(schema, in.Attrs))
		rec := make(data.Record, len(schema))
		var walk func(i int)
		walk = func(i int) {
			if i < len(schema) {
				for _, v := range values[i] {
					rec[i] = v
					walk(i + 1)
				}
				return
			}
			v, err := pred.Eval(schema, rec)
			if err != nil {
				t.Fatalf("%s on %v: %v", c.pred, rec, err)
			}
			if (got == triTrue && !v.Bool()) || (got == triFalse && v.Bool()) {
				t.Errorf("%s: verdict %s, but row %v evaluates to %v", c.pred, triName[got], rec, v.Bool())
			}
			if !v.Bool() {
				return
			}
			for j, name := range schema {
				d := refined[name]
				if rec[j].IsNull() {
					if !d.MaybeNull {
						t.Errorf("%s: row %v survives, but refinePred proves %s non-null", c.pred, rec, name)
					}
				} else if lo, hi := data.NewFloat(d.Val.Lo), data.NewFloat(d.Val.Hi); rec[j].Compare(lo) < 0 || rec[j].Compare(hi) > 0 {
					t.Errorf("%s: row %v survives, but refinePred narrows %s to %s", c.pred, rec, name, d.Val)
				}
			}
		}
		walk(0)
	}
}

// TestMirrorCmp: a constant on the left is the mirrored comparison with
// the constant on the right.
func TestMirrorCmp(t *testing.T) {
	for op, want := range map[algebra.CmpOp]algebra.CmpOp{
		algebra.LT: algebra.GT, algebra.LE: algebra.GE, algebra.GT: algebra.LT,
		algebra.GE: algebra.LE, algebra.EQ: algebra.EQ, algebra.NE: algebra.NE,
	} {
		if got := mirrorCmp(op); got != want {
			t.Errorf("mirrorCmp(%s) = %s, want %s", op, got, want)
		}
	}
}
