package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// This file implements the workflow abstract interpreter: a forward
// dataflow analysis over the provider edges of a workflow graph that
// propagates, from sources to targets,
//
//   - cardinality intervals, seeded from the declared source rows and the
//     cost model's selectivity estimates;
//   - per-attribute value intervals, refined by filter predicates (a row
//     that survives σ(V>=117) has V ∈ [117, +∞));
//   - per-attribute nullability (source attributes start maybe-null;
//     not-null guards and SQL-style comparisons clear the flag); and
//   - per-attribute provenance: the set of source-recordset attributes
//     whose values reach the attribute through function application,
//     aggregation and surrogate-key assignment.
//
// The domains are standard over-approximations, so every proof the
// interpreter makes ("this filter passes every row", "no row satisfies
// this guard", "no source attribute reaches this target column") holds
// for every concrete execution. The passes built on top live in
// absint_passes.go.

// Interval is a closed numeric interval [Lo, Hi]; ±Inf bounds encode
// half-open and unbounded ("top") intervals. Lo > Hi encodes the empty
// interval (bottom).
type Interval struct{ Lo, Hi float64 }

// TopInterval is the unbounded interval (−∞, +∞).
func TopInterval() Interval { return Interval{math.Inf(-1), math.Inf(1)} }

// PointInterval is the degenerate interval [v, v].
func PointInterval(v float64) Interval { return Interval{v, v} }

// IsEmpty reports whether the interval contains no value.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// IsPoint reports whether the interval is a single finite value.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi && !math.IsInf(iv.Lo, 0) }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)}
}

// Hull returns the smallest interval containing both (the lattice join).
func (iv Interval) Hull(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{math.Min(iv.Lo, o.Lo), math.Max(iv.Hi, o.Hi)}
}

// Add returns the interval sum.
func (iv Interval) Add(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return Interval{1, 0}
	}
	return Interval{iv.Lo + o.Lo, iv.Hi + o.Hi}
}

// Sub returns the interval difference.
func (iv Interval) Sub(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return Interval{1, 0}
	}
	return Interval{iv.Lo - o.Hi, iv.Hi - o.Lo}
}

// Mul returns the interval product.
func (iv Interval) Mul(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return Interval{1, 0}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range [2]float64{iv.Lo, iv.Hi} {
		for _, b := range [2]float64{o.Lo, o.Hi} {
			p := a * b
			if math.IsNaN(p) { // 0 × ±Inf: contributes 0
				p = 0
			}
			lo = math.Min(lo, p)
			hi = math.Max(hi, p)
		}
	}
	return Interval{lo, hi}
}

// String renders the interval compactly: [117,+inf), [0,0], (-inf,+inf).
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "∅"
	}
	lo, lb := "-inf", "("
	if !math.IsInf(iv.Lo, -1) {
		lo, lb = fmt.Sprintf("%g", iv.Lo), "["
	}
	hi, rb := "+inf", ")"
	if !math.IsInf(iv.Hi, 1) {
		hi, rb = fmt.Sprintf("%g", iv.Hi), "]"
	}
	return lb + lo + "," + hi + rb
}

// AttrDomain abstracts one attribute's value at a node's output.
type AttrDomain struct {
	// Val over-approximates the attribute's non-null numeric values.
	// Top for attributes the analysis has no constraint on (strings,
	// dates, unknown function results).
	Val Interval
	// MaybeNull is false only when the analysis proves the attribute is
	// never NULL at this point.
	MaybeNull bool
	// Roots is the sorted set of source attributes ("SRC.ATTR") whose
	// values flow into this attribute. Empty when the value is purely
	// synthesized (e.g. a count() aggregate).
	Roots []string
	// GenBy records the activity node that synthesized the value when
	// Roots is empty; -1 otherwise.
	GenBy workflow.NodeID
}

func topDomain(roots []string) AttrDomain {
	return AttrDomain{Val: TopInterval(), MaybeNull: true, Roots: roots, GenBy: -1}
}

// joinDomains is the lattice join at flow merge points (union branches).
func joinDomains(a, b AttrDomain) AttrDomain {
	out := AttrDomain{
		Val:       a.Val.Hull(b.Val),
		MaybeNull: a.MaybeNull || b.MaybeNull,
		Roots:     unionRoots(a.Roots, b.Roots),
		GenBy:     a.GenBy,
	}
	if out.GenBy < 0 {
		out.GenBy = b.GenBy
	}
	return out
}

func unionRoots(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// NodeAbs is the abstract state at one node's output.
type NodeAbs struct {
	// Card is the node's output cardinality interval.
	Card Interval
	// Sel is the derived selectivity interval of an activity: [1,1] when
	// the operation provably keeps every row, [0,0] when it provably
	// keeps none, and the declared estimate otherwise. Recordsets carry
	// [1,1].
	Sel Interval
	// Attrs maps each output-schema attribute to its domain.
	Attrs map[string]AttrDomain
}

// DomainString renders the evidence for one attribute — interval,
// nullability and provenance — for inclusion in finding messages.
func (na *NodeAbs) DomainString(attr string) string {
	d, ok := na.Attrs[attr]
	if !ok {
		return attr + " ∈ (unknown)"
	}
	null := "maybe-null"
	if !d.MaybeNull {
		null = "non-null"
	}
	return fmt.Sprintf("%s ∈ %s, %s", attr, d.Val, null)
}

// AbsResult is the abstract interpretation of one workflow.
type AbsResult struct {
	// Nodes maps every graph node to its output abstract state.
	Nodes map[workflow.NodeID]*NodeAbs
	// SourceRows is the summed declared cardinality of the sources.
	SourceRows float64
}

// Interpret computes every node's abstract state in one topological
// sweep — workflows are acyclic (Graph.Validate), so each node's providers
// are final when it is reached. The graph must be validated with schemata
// regenerated (CheckWorkflow guarantees both).
func Interpret(g *workflow.Graph) (*AbsResult, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	res := &AbsResult{Nodes: make(map[workflow.NodeID]*NodeAbs, len(order))}
	for _, id := range g.Sources() {
		res.SourceRows += g.Node(id).RS.Rows
	}
	for _, id := range order {
		if res.Nodes[id], err = transfer(g, res, id); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// transfer computes one node's output abstract state from its providers.
func transfer(g *workflow.Graph, res *AbsResult, id workflow.NodeID) (*NodeAbs, error) {
	n := g.Node(id)
	preds := g.Providers(id)
	if n.Kind == workflow.KindRecordset {
		if len(preds) == 1 {
			// Target (or intermediate) recordset: stores what arrives.
			in := res.Nodes[preds[0]]
			return &NodeAbs{Card: in.Card, Sel: PointInterval(1), Attrs: copyAttrs(n.RS.Schema, in.Attrs)}, nil
		}
		// Source: declared rows, top domains, provenance roots.
		out := &NodeAbs{Card: PointInterval(n.RS.Rows), Sel: PointInterval(1), Attrs: make(map[string]AttrDomain, len(n.RS.Schema))}
		for _, attr := range n.RS.Schema {
			out.Attrs[attr] = topDomain([]string{n.RS.Name + "." + attr})
		}
		return out, nil
	}

	in := make([]*NodeAbs, len(preds))
	for i, p := range preds {
		in[i] = res.Nodes[p]
	}
	return transferActivity(n, id, in)
}

// clampSel clamps a declared selectivity estimate into [0, 1].
func clampSel(sel float64) Interval {
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return PointInterval(sel)
}

// copyAttrs projects the input domains onto the output schema.
func copyAttrs(schema data.Schema, in map[string]AttrDomain) map[string]AttrDomain {
	out := make(map[string]AttrDomain, len(schema))
	for _, attr := range schema {
		if d, ok := in[attr]; ok {
			out[attr] = d
		}
	}
	return out
}

// transferActivity applies one activity's abstract semantics. The output
// schema n.Out was derived by RegenerateSchemata, so the function only
// fills domains for attributes that exist there.
func transferActivity(n *workflow.Node, id workflow.NodeID, in []*NodeAbs) (*NodeAbs, error) {
	a := n.Act
	if a.IsBinary() && len(in) < 2 {
		return nil, fmt.Errorf("analysis: binary %s node %d has %d providers", a.Sem.Op, id, len(in))
	}
	out := &NodeAbs{Sel: clampSel(a.Sel)}
	switch a.Sem.Op {
	case workflow.OpFilter:
		truth := evalPred(a.Sem.Pred, in[0])
		switch truth {
		case triTrue:
			out.Sel = PointInterval(1)
		case triFalse:
			out.Sel = PointInterval(0)
		}
		out.Attrs = refinePred(a.Sem.Pred, copyAttrs(n.Out, in[0].Attrs))
		out.Card = in[0].Card.Mul(out.Sel)

	case workflow.OpNotNull:
		allNonNull := true
		for _, attr := range a.Sem.Attrs {
			if d, ok := in[0].Attrs[attr]; !ok || d.MaybeNull {
				allNonNull = false
			}
		}
		if allNonNull {
			out.Sel = PointInterval(1)
		}
		out.Attrs = copyAttrs(n.Out, in[0].Attrs)
		for _, attr := range a.Sem.Attrs {
			if d, ok := out.Attrs[attr]; ok {
				d.MaybeNull = false
				out.Attrs[attr] = d
			}
		}
		out.Card = in[0].Card.Mul(out.Sel)

	case workflow.OpPKCheck, workflow.OpDistinct:
		out.Attrs = copyAttrs(n.Out, in[0].Attrs)
		out.Card = in[0].Card.Mul(out.Sel)

	case workflow.OpProject:
		out.Sel = PointInterval(1)
		out.Attrs = copyAttrs(n.Out, in[0].Attrs)
		out.Card = in[0].Card

	case workflow.OpFunc:
		out.Attrs = copyAttrs(n.Out, in[0].Attrs)
		gen := AttrDomain{Val: TopInterval(), GenBy: id}
		for _, arg := range a.Sem.FnArgs {
			if d, ok := in[0].Attrs[arg]; ok {
				gen.MaybeNull = gen.MaybeNull || d.MaybeNull
				gen.Roots = unionRoots(gen.Roots, d.Roots)
			}
		}
		out.Attrs[a.Sem.OutAttr] = gen
		out.Card = in[0].Card.Mul(out.Sel)

	case workflow.OpAggregate:
		out.Attrs = copyAttrs(n.Out, in[0].Attrs)
		gen := AttrDomain{Val: TopInterval(), GenBy: id}
		if a.Sem.Agg == workflow.AggCount {
			// The count is synthesized: its value depends on group sizes,
			// not on any source attribute's value, and groups are
			// non-empty, so the value is at least 1.
			gen.Val = Interval{1, math.Inf(1)}
			gen.MaybeNull = false
		} else if d, ok := in[0].Attrs[a.Sem.AggAttr]; ok {
			gen.MaybeNull = d.MaybeNull
			gen.Roots = d.Roots
			if a.Sem.Agg == workflow.AggMin || a.Sem.Agg == workflow.AggMax || a.Sem.Agg == workflow.AggAvg {
				gen.Val = d.Val // extrema and means stay inside the hull
			}
		}
		out.Attrs[a.Sem.OutAttr] = gen
		out.Card = in[0].Card.Mul(out.Sel)

	case workflow.OpSurrogateKey:
		out.Attrs = copyAttrs(n.Out, in[0].Attrs)
		gen := AttrDomain{Val: TopInterval(), MaybeNull: false, GenBy: id}
		if d, ok := in[0].Attrs[a.Sem.KeyAttr]; ok {
			// The surrogate is functionally determined by the production
			// key, so lineage flows through it.
			gen.Roots = d.Roots
		}
		out.Attrs[a.Sem.OutAttr] = gen
		out.Card = in[0].Card.Mul(out.Sel)

	case workflow.OpMerged:
		// Fold the packaged components in execution order, deriving each
		// component's output schema with the same rules RegenerateSchemata
		// applies.
		cur := &NodeAbs{Card: in[0].Card, Sel: PointInterval(1), Attrs: in[0].Attrs}
		schema := data.Schema(attrNames(cur.Attrs))
		for _, comp := range a.Sem.Components {
			schema = componentOut(comp, schema)
			compNode := &workflow.Node{ID: id, Kind: workflow.KindActivity, Act: comp, Out: schema}
			next, err := transferActivity(compNode, id, []*NodeAbs{cur})
			if err != nil {
				return nil, err
			}
			cur = next
		}
		out.Attrs = copyAttrs(n.Out, cur.Attrs)
		out.Card = cur.Card
		out.Sel = PointInterval(1)

	case workflow.OpUnion:
		out.Sel = PointInterval(1)
		out.Attrs = make(map[string]AttrDomain, len(n.Out))
		for _, attr := range n.Out {
			l, lok := in[0].Attrs[attr]
			r, rok := in[1].Attrs[attr]
			switch {
			case lok && rok:
				out.Attrs[attr] = joinDomains(l, r)
			case lok:
				out.Attrs[attr] = l
			case rok:
				out.Attrs[attr] = r
			}
		}
		out.Card = in[0].Card.Add(in[1].Card)

	case workflow.OpJoin:
		out.Attrs = make(map[string]AttrDomain, len(n.Out))
		keys := data.Schema(a.Sem.Attrs)
		for _, attr := range n.Out {
			l, lok := in[0].Attrs[attr]
			r, rok := in[1].Attrs[attr]
			switch {
			case lok && rok && keys.Has(attr):
				// Equi-join keys match on both sides: intersect, and a
				// NULL key never matches.
				out.Attrs[attr] = AttrDomain{
					Val:       l.Val.Intersect(r.Val),
					MaybeNull: false,
					Roots:     unionRoots(l.Roots, r.Roots),
					GenBy:     -1,
				}
			case lok:
				out.Attrs[attr] = l
			case rok:
				out.Attrs[attr] = r
			}
		}
		out.Card = in[0].Card.Mul(in[1].Card).Mul(out.Sel)

	case workflow.OpDiff, workflow.OpIntersect:
		out.Attrs = copyAttrs(n.Out, in[0].Attrs)
		out.Card = in[0].Card.Mul(out.Sel)

	default:
		out.Attrs = copyAttrs(n.Out, in[0].Attrs)
		out.Card = in[0].Card
	}
	if !out.Card.IsEmpty() && out.Card.Lo < 0 {
		out.Card.Lo = 0
	}
	return out, nil
}

// componentOut mirrors the schemata rules for the unary operations that
// may appear inside an OpMerged package.
func componentOut(a *workflow.Activity, in data.Schema) data.Schema {
	switch a.Sem.Op {
	case workflow.OpProject:
		return in.Minus(data.Schema(a.Sem.Attrs))
	case workflow.OpFunc:
		if a.InPlace() {
			return in
		}
		out := in.Clone()
		if a.Sem.DropArgs {
			out = out.Minus(data.Schema(a.Sem.FnArgs))
		}
		if !out.Has(a.Sem.OutAttr) {
			out = append(out, a.Sem.OutAttr)
		}
		return out
	case workflow.OpAggregate:
		return append(in.Intersect(data.Schema(a.Sem.Attrs)), a.Sem.OutAttr)
	case workflow.OpSurrogateKey:
		return append(in.Minus(data.Schema{a.Sem.KeyAttr}), a.Sem.OutAttr)
	default:
		return in
	}
}

func attrNames(m map[string]AttrDomain) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Three-valued predicate truth.
type tri uint8

const (
	triUnknown tri = iota
	triTrue
	triFalse
)

// evalPred decides whether pred holds for every row (triTrue), for no row
// (triFalse), or cannot be decided (triUnknown) under the input state.
// The SQL-style NULL semantics of algebra.Cmp are honoured: a comparison
// with a NULL operand is false (NE: true when exactly one side is NULL),
// so "always true" additionally requires the operands to be non-null.
func evalPred(e algebra.Expr, in *NodeAbs) tri {
	switch x := e.(type) {
	case algebra.Cmp:
		return evalCmp(x, in)
	case algebra.Logic:
		l, r := evalPred(x.Left, in), evalPred(x.Right, in)
		if x.Op == algebra.And {
			switch {
			case l == triFalse || r == triFalse:
				return triFalse
			case l == triTrue && r == triTrue:
				return triTrue
			}
			return triUnknown
		}
		switch {
		case l == triTrue || r == triTrue:
			return triTrue
		case l == triFalse && r == triFalse:
			return triFalse
		}
		return triUnknown
	case algebra.Not:
		switch evalPred(x.Inner, in) {
		case triTrue:
			return triFalse
		case triFalse:
			return triTrue
		}
		return triUnknown
	case algebra.IsNull:
		if attr, ok := x.Inner.(algebra.Attr); ok {
			if d, ok := in.Attrs[attr.Name]; ok && !d.MaybeNull {
				return triFalse
			}
		}
		return triUnknown
	case algebra.Const:
		if x.Value.Kind() == data.KindBool {
			if x.Value.Bool() {
				return triTrue
			}
			return triFalse
		}
		return triUnknown
	default:
		return triUnknown
	}
}

// evalCmp decides a comparison from the operand intervals.
func evalCmp(c algebra.Cmp, in *NodeAbs) tri {
	l, lNull, lok := exprInterval(c.Left, in)
	r, rNull, rok := exprInterval(c.Right, in)
	if !lok || !rok || l.IsEmpty() || r.IsEmpty() {
		return triUnknown
	}
	// Interval-level decision for non-null operands.
	var nonNullTruth tri
	switch c.Op {
	case algebra.LT:
		nonNullTruth = cmpTri(l.Hi < r.Lo, l.Lo >= r.Hi)
	case algebra.LE:
		nonNullTruth = cmpTri(l.Hi <= r.Lo, l.Lo > r.Hi)
	case algebra.GT:
		nonNullTruth = cmpTri(l.Lo > r.Hi, l.Hi <= r.Lo)
	case algebra.GE:
		nonNullTruth = cmpTri(l.Lo >= r.Hi, l.Hi < r.Lo)
	case algebra.EQ:
		nonNullTruth = cmpTri(l.IsPoint() && r.IsPoint() && l.Lo == r.Lo, l.Intersect(r).IsEmpty())
	case algebra.NE:
		nonNullTruth = cmpTri(l.Intersect(r).IsEmpty(), l.IsPoint() && r.IsPoint() && l.Lo == r.Lo)
	default:
		return triUnknown
	}
	maybeNull := lNull || rNull
	switch c.Op {
	case algebra.NE:
		// A row with exactly one NULL side satisfies NE; both-null rows do
		// not. Proofs only survive when no operand can be null.
		if maybeNull {
			return triUnknown
		}
		return nonNullTruth
	default:
		// NULL rows evaluate to false: "always false" survives nullability,
		// "always true" requires non-null operands.
		if nonNullTruth == triFalse {
			return triFalse
		}
		if nonNullTruth == triTrue && !maybeNull {
			return triTrue
		}
		return triUnknown
	}
}

func cmpTri(alwaysTrue, alwaysFalse bool) tri {
	switch {
	case alwaysTrue:
		return triTrue
	case alwaysFalse:
		return triFalse
	default:
		return triUnknown
	}
}

// exprInterval over-approximates a scalar expression's non-null values,
// reporting whether the expression may be NULL and whether the analysis
// understands it at all.
func exprInterval(e algebra.Expr, in *NodeAbs) (iv Interval, maybeNull, ok bool) {
	switch x := e.(type) {
	case algebra.Attr:
		d, found := in.Attrs[x.Name]
		if !found {
			return TopInterval(), true, true
		}
		return d.Val, d.MaybeNull, true
	case algebra.Const:
		if x.Value.IsNull() {
			return TopInterval(), true, true
		}
		if !x.Value.IsNumeric() && x.Value.Kind() != data.KindDate {
			return Interval{}, false, false // strings: no numeric order modelled
		}
		return PointInterval(x.Value.Float()), false, true
	case algebra.Arith:
		l, ln, lok := exprInterval(x.Left, in)
		r, rn, rok := exprInterval(x.Right, in)
		if !lok || !rok {
			return Interval{}, false, false
		}
		switch x.Op {
		case algebra.Add:
			return l.Add(r), ln || rn, true
		case algebra.Sub:
			return l.Sub(r), ln || rn, true
		case algebra.Mul:
			return l.Mul(r), ln || rn, true
		default: // Div: a zero in the divisor traps at run time; stay top.
			return TopInterval(), ln || rn, true
		}
	default:
		return Interval{}, false, false
	}
}

// refinePred narrows the attribute domains under the assumption that the
// predicate holds — the abstract meaning of surviving a filter. Only
// conjunctions of simple attribute-versus-constant comparisons refine;
// everything else leaves the domains untouched (a sound over-
// approximation). Surviving any such comparison also proves the attribute
// non-null.
func refinePred(e algebra.Expr, attrs map[string]AttrDomain) map[string]AttrDomain {
	switch x := e.(type) {
	case algebra.Logic:
		if x.Op == algebra.And {
			return refinePred(x.Right, refinePred(x.Left, attrs))
		}
	case algebra.Cmp:
		attr, aok := x.Left.(algebra.Attr)
		cst, cok := x.Right.(algebra.Const)
		op := x.Op
		if !aok || !cok {
			// Constant-versus-attribute: mirror the comparison.
			if a2, ok2 := x.Right.(algebra.Attr); ok2 {
				if c2, ok3 := x.Left.(algebra.Const); ok3 {
					attr, cst, aok, cok = a2, c2, true, true
					op = mirrorCmp(op)
				}
			}
		}
		if aok && cok && !cst.Value.IsNull() && (cst.Value.IsNumeric() || cst.Value.Kind() == data.KindDate) {
			d, ok := attrs[attr.Name]
			if !ok {
				return attrs
			}
			c := cst.Value.Float()
			switch op {
			case algebra.EQ:
				d.Val = d.Val.Intersect(PointInterval(c))
			case algebra.LT, algebra.LE:
				// v < c over-approximated by v ≤ c: sound for both the
				// always-true and always-false proofs downstream.
				d.Val = d.Val.Intersect(Interval{math.Inf(-1), c})
			case algebra.GT, algebra.GE:
				d.Val = d.Val.Intersect(Interval{c, math.Inf(1)})
			case algebra.NE:
				// No interval refinement, and NULL rows pass NE.
				attrs[attr.Name] = d
				return attrs
			}
			d.MaybeNull = false // NULL never survives EQ/LT/LE/GT/GE
			attrs[attr.Name] = d
		}
	}
	return attrs
}

func mirrorCmp(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.LT:
		return algebra.GT
	case algebra.LE:
		return algebra.GE
	case algebra.GT:
		return algebra.LT
	case algebra.GE:
		return algebra.LE
	default:
		return op
	}
}

// RootsString renders a provenance set for finding messages.
func RootsString(roots []string) string {
	if len(roots) == 0 {
		return "∅"
	}
	return "{" + strings.Join(roots, ", ") + "}"
}
