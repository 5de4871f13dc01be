// Package templates provides the library of parameterized activity
// templates (§3.2, ref [18]). Each constructor instantiates an Activity
// with predefined semantics and the auxiliary schemata the optimizer needs:
// the template designer "dictates in advance which are the parameters for
// the activity (functionality schema) and which are the new or the
// non-necessary attributes" (generated and projected-out schemata); the
// instantiation here fills in the concrete reference attribute names.
package templates

import (
	"fmt"
	"math"
	"strings"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// Filter instantiates a selection σ(pred) with the given selectivity
// estimate. The functionality schema is the set of attributes the predicate
// reads; filters generate and project out nothing.
func Filter(pred algebra.Expr, sel float64) *workflow.Activity {
	attrs := algebra.AttrSet(pred)
	return &workflow.Activity{
		Name: fmt.Sprintf("σ(%s)", pred),
		Sem:  workflow.Semantics{Op: workflow.OpFilter, Pred: pred, Attrs: attrs},
		Fun:  data.Schema(attrs).Clone(),
		Sel:  sel,
	}
}

// NotNull instantiates a not-null check on the given attributes; records
// with a NULL in any checked attribute are rejected.
func NotNull(sel float64, attrs ...string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("NN(%s)", strings.Join(attrs, ",")),
		Sem:  workflow.Semantics{Op: workflow.OpNotNull, Attrs: attrs},
		Fun:  data.Schema(attrs).Clone(),
		Sel:  sel,
	}
}

// PKCheck instantiates a primary-key violation check on the key attributes.
// For each key value exactly one record (the minimal one under a
// deterministic total order) survives, making the operation insensitive to
// input order.
func PKCheck(sel float64, keys ...string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("PK(%s)", strings.Join(keys, ",")),
		Sem:  workflow.Semantics{Op: workflow.OpPKCheck, Attrs: keys},
		Fun:  data.Schema(keys).Clone(),
		Sel:  sel,
	}
}

// PKCheckAgainst instantiates a lookup-based primary-key violation check:
// records whose key tuple already exists in the named lookup recordset are
// rejected. Unlike the group-based PKCheck this test is per-row and
// order-insensitive, so it commutes like a selection.
func PKCheckAgainst(lookup string, sel float64, keys ...string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("PK(%s@%s)", strings.Join(keys, ","), lookup),
		Sem:  workflow.Semantics{Op: workflow.OpPKCheck, Attrs: keys, Lookup: lookup},
		Fun:  data.Schema(keys).Clone(),
		Sel:  sel,
	}
}

// Distinct instantiates an exact-duplicate elimination.
func Distinct(sel float64) *workflow.Activity {
	return &workflow.Activity{
		Name: "DISTINCT",
		Sem:  workflow.Semantics{Op: workflow.OpDistinct},
		Sel:  sel,
	}
}

// ProjectOut instantiates a projection dropping the given attributes. The
// dropped attributes form both the functionality and the projected-out
// schema.
func ProjectOut(attrs ...string) *workflow.Activity {
	return &workflow.Activity{
		Name:   fmt.Sprintf("π-out(%s)", strings.Join(attrs, ",")),
		Sem:    workflow.Semantics{Op: workflow.OpProject, Attrs: attrs},
		Fun:    data.Schema(attrs).Clone(),
		PrjOut: data.Schema(attrs).Clone(),
		Sel:    1,
	}
}

// Apply instantiates a function application out := fn(args...) that keeps
// the argument attributes in the flow. The generated schema is {out}.
func Apply(fn, out string, args ...string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("%s(%s)->%s", fn, strings.Join(args, ","), out),
		Sem:  workflow.Semantics{Op: workflow.OpFunc, Fn: fn, FnArgs: args, OutAttr: out},
		Fun:  data.Schema(args).Clone(),
		Gen:  data.Schema{out},
		Sel:  1,
	}
}

// Convert instantiates a converting function application that *replaces*
// its argument attributes with the generated attribute — the paper's $2€
// template: euro_cost := dollar2euro(dollar_cost), with dollar_cost
// projected out. The new attribute denotes a different real-world entity
// and therefore carries a fresh reference name (§3.1).
func Convert(fn, out string, args ...string) *workflow.Activity {
	return &workflow.Activity{
		Name:   fmt.Sprintf("%s(%s)=>%s", fn, strings.Join(args, ","), out),
		Sem:    workflow.Semantics{Op: workflow.OpFunc, Fn: fn, FnArgs: args, OutAttr: out, DropArgs: true},
		Fun:    data.Schema(args).Clone(),
		Gen:    data.Schema{out},
		PrjOut: data.Schema(args).Clone(),
		Sel:    1,
	}
}

// Reformat instantiates an in-place function application attr :=
// fn(attr) — the paper's A2E template: the transformed attribute keeps its
// reference name because it denotes the same real-world entity (§3.1), so
// the generated and projected-out schemata are empty and downstream
// activities keyed on the attribute may swap across it.
func Reformat(fn, attr string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("%s(%s)", fn, attr),
		Sem:  workflow.Semantics{Op: workflow.OpFunc, Fn: fn, FnArgs: []string{attr}, OutAttr: attr},
		Fun:  data.Schema{attr},
		Sel:  1,
	}
}

// Aggregate instantiates a grouping aggregation γ[groupers; agg(attr)->out]
// with selectivity sel (the grouping ratio: expected groups per input row).
// The aggregated result is a new real-world entity (a monthly sum is not a
// daily cost), so out receives a fresh reference name; every non-grouper
// input attribute is projected out. This is exactly what forbids pushing
// the paper's σ(€COST) below the aggregation (condition 3) while allowing
// the aggregation to swap with the in-place A2E reformat (Fig. 2).
func Aggregate(groupers []string, agg workflow.AggKind, attr, out string, sel float64) *workflow.Activity {
	fun := data.Schema(groupers).Clone()
	if agg != workflow.AggCount && !fun.Has(attr) {
		fun = append(fun, attr)
	}
	return &workflow.Activity{
		Name: fmt.Sprintf("γ[%s;%s(%s)->%s]", strings.Join(groupers, ","), agg, attr, out),
		Sem: workflow.Semantics{
			Op:      workflow.OpAggregate,
			Attrs:   groupers,
			Agg:     agg,
			AggAttr: attr,
			OutAttr: out,
		},
		Fun: fun,
		Gen: data.Schema{out},
		Sel: sel,
	}
}

// SurrogateKey instantiates a surrogate-key assignment: the production key
// attribute is replaced by the surrogate attribute, resolved through the
// named lookup recordset (schema: key, surrogate). The lookup table can be
// cached, which is the paper's motivation for factorizing SK activities.
func SurrogateKey(keyAttr, skAttr, lookup string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("SK(%s=>%s)", keyAttr, skAttr),
		Sem: workflow.Semantics{
			Op:      workflow.OpSurrogateKey,
			KeyAttr: keyAttr,
			OutAttr: skAttr,
			Lookup:  lookup,
		},
		Fun:    data.Schema{keyAttr},
		Gen:    data.Schema{skAttr},
		PrjOut: data.Schema{keyAttr},
		Sel:    1,
	}
}

// Union instantiates a bag union of two flows with identical schemata.
func Union() *workflow.Activity {
	return &workflow.Activity{
		Name: "U",
		Sem:  workflow.Semantics{Op: workflow.OpUnion},
		Sel:  1,
	}
}

// Join instantiates an equi-join on the key attributes with the given
// match selectivity (expected output rows per input-row pair).
func Join(sel float64, keys ...string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("⋈(%s)", strings.Join(keys, ",")),
		Sem:  workflow.Semantics{Op: workflow.OpJoin, Attrs: keys},
		Fun:  data.Schema(keys).Clone(),
		Sel:  sel,
	}
}

// Diff instantiates a difference (anti-semi-join) on the key attributes:
// left records whose key appears on the right are rejected. sel estimates
// the surviving fraction of the left input.
func Diff(sel float64, keys ...string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("Δ(%s)", strings.Join(keys, ",")),
		Sem:  workflow.Semantics{Op: workflow.OpDiff, Attrs: keys},
		Fun:  data.Schema(keys).Clone(),
		Sel:  sel,
	}
}

// Intersect instantiates an intersection (semi-join) on the key attributes:
// left records whose key appears on the right survive.
func Intersect(sel float64, keys ...string) *workflow.Activity {
	return &workflow.Activity{
		Name: fmt.Sprintf("∩(%s)", strings.Join(keys, ",")),
		Sem:  workflow.Semantics{Op: workflow.OpIntersect, Attrs: keys},
		Fun:  data.Schema(keys).Clone(),
		Sel:  sel,
	}
}

// Threshold is a convenience for the recurring σ(attr >= limit) selection
// (the paper's σ(€COST) check that only costs above a threshold reach the
// warehouse). An integral limit is an int constant, as the DSL reads it
// back.
func Threshold(attr string, limit float64, sel float64) *workflow.Activity {
	c := data.NewFloat(limit)
	if limit == math.Trunc(limit) && math.Abs(limit) < 1<<53 {
		c = data.NewInt(int64(limit))
	}
	return Filter(algebra.Cmp{Op: algebra.GE, Left: algebra.Attr{Name: attr}, Right: algebra.Const{Value: c}}, sel)
}
