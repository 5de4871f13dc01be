package workflow

import (
	"fmt"
	"slices"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
)

// RegenerateSchemata recomputes the input and output schemata of every node
// in topological order. Per §3.3, "after each transition has taken place,
// the input and output schemata of each activity are automatically
// re-generated": an activity's input schema is its provider's output
// schema, and its output schema follows from the operation — input minus
// projected-out plus generated attributes, with operation-specific rules
// for aggregations and binary activities.
//
// RegenerateSchemata only fails on structurally impossible graphs (missing
// providers, cycles); semantic violations such as a functionality schema
// not covered by the input are reported separately by CheckWellFormed so
// that transition code can distinguish "broken graph" from "rejected
// rewrite".
func (g *Graph) RegenerateSchemata() error {
	order, err := g.TopoSort()
	if err != nil {
		return err
	}
	for _, id := range order {
		if err := g.derive(id); err != nil {
			return err
		}
	}
	return nil
}

// derive recomputes one node's schemata from its providers' outputs.
func (g *Graph) derive(id NodeID) error {
	n := g.mutableNode(id)
	n.In = make([]data.Schema, len(n.pred))
	for i, p := range n.pred {
		// Schemas are immutable once derived, so sharing the provider's Out
		// slice is safe and avoids one allocation per node per regeneration.
		n.In[i] = g.nodes[p].Out
	}
	switch n.Kind {
	case KindRecordset:
		n.Out = n.RS.Schema.Clone()
	case KindActivity:
		if len(n.pred) == 0 {
			return fmt.Errorf("workflow: activity %d (%s) has no provider", id, n.Label())
		}
		out, err := DeriveOutput(n.Act, n.In)
		if err != nil {
			return fmt.Errorf("workflow: activity %d (%s): %w", id, n.Label(), err)
		}
		n.Out = out
	}
	return nil
}

// sameSlice reports whether two schemas are the same backing slice, the
// cheap fast path for detecting unchanged shared schemas.
func sameSlice(a, b data.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// RegenerateSchemataIncremental re-derives the schemata of the nodes a
// rewrite affected and returns their IDs, so the caller can restrict
// well-formedness checking to them; other nodes keep their shared schemas.
// dirty must meet cost.EvaluateIncremental's precondition, so only the
// forward cone of the dirty nodes can change. The cone is walked in
// reverse DFS postorder, its marks in stack buffers, and a node is
// re-derived when it is dirty or an input schema no longer matches its
// provider's output. Every rewired edge has a dirty endpoint, so a cycle
// the rewrite closed shows as a back edge. Nothing is sorted or memoized.
func (g *Graph) RegenerateSchemataIncremental(dirty []NodeID) ([]NodeID, error) {
	var marksBuf [stackSlots]uint8
	var postBuf [stackSlots]NodeID
	marks, post := marksBuf[:], postBuf[:0]
	if len(g.nodes) > stackSlots {
		marks, post = make([]uint8, len(g.nodes)), nil
	}
	for _, d := range dirty {
		if g.has(d) && marks[d] == 0 {
			var err error
			if post, err = g.cone(d, marks, post); err != nil {
				return nil, err
			}
		}
	}
	recomputed := make([]NodeID, 0, len(dirty))
	for i := len(post) - 1; i >= 0; i-- {
		if id := post[i]; slices.Contains(dirty, id) || g.inputsStale(g.nodes[id]) {
			if err := g.derive(id); err != nil {
				return nil, err
			}
			recomputed = append(recomputed, id)
		}
	}
	return recomputed, nil
}

// Marks of the cone walk: a node is open while the walk is below it.
const (
	openMark uint8 = iota + 1
	doneMark
)

// cone appends the forward cone of id to post in DFS postorder, marking
// the nodes it visits. A consumer reached while still open closes a back
// edge: the cycle error.
func (g *Graph) cone(id NodeID, marks []uint8, post []NodeID) ([]NodeID, error) {
	marks[id] = openMark
	for _, s := range g.nodes[id].succ {
		switch marks[s] {
		case openMark:
			return nil, fmt.Errorf("workflow: graph contains a cycle through node %d", s)
		case 0:
			var err error
			if post, err = g.cone(s, marks, post); err != nil {
				return nil, err
			}
		}
	}
	marks[id] = doneMark
	return append(post, id), nil
}

// inputsStale reports whether n's stored input schemata no longer match
// its providers' outputs.
func (g *Graph) inputsStale(n *Node) bool {
	if len(n.In) != len(n.pred) {
		return true
	}
	for i, p := range n.pred {
		if cur := g.nodes[p].Out; !sameSlice(n.In[i], cur) && !n.In[i].Equal(cur) {
			return true
		}
	}
	return false
}

// DeriveOutput computes an activity's output schema from its input
// schemata. RegenerateSchemata stores the result per node; a merged
// package's output, and CheckWellFormed's check of the package, fold it
// over the package's components, which are not nodes.
func DeriveOutput(a *Activity, in []data.Schema) (data.Schema, error) {
	if a.IsBinary() {
		if len(in) != 2 {
			return nil, fmt.Errorf("binary %s has %d inputs", a.Sem.Op, len(in))
		}
	} else if len(in) != 1 {
		return nil, fmt.Errorf("unary %s has %d inputs", a.Sem.Op, len(in))
	}
	switch a.Sem.Op {
	case OpFilter, OpNotNull, OpPKCheck, OpDistinct:
		return in[0], nil // pass-through; schemas are immutable and shareable
	case OpProject:
		return in[0].Minus(data.Schema(a.Sem.Attrs)), nil
	case OpFunc:
		return funcOutput(a, in[0]), nil
	case OpAggregate:
		out := in[0].Intersect(data.Schema(a.Sem.Attrs)) // groupers, input order
		return append(out, a.Sem.OutAttr), nil
	case OpSurrogateKey:
		out := in[0].Minus(data.Schema{a.Sem.KeyAttr})
		return append(out, a.Sem.OutAttr), nil
	case OpMerged:
		cur := in[0].Clone()
		for _, comp := range a.Sem.Components {
			next, err := DeriveOutput(comp, []data.Schema{cur})
			if err != nil {
				return nil, fmt.Errorf("merged component %s: %w", comp.Sem, err)
			}
			cur = next
		}
		return cur, nil
	case OpUnion:
		return in[0], nil
	case OpJoin:
		return in[0].Union(in[1]), nil
	case OpDiff, OpIntersect:
		return in[0], nil
	default:
		return nil, fmt.Errorf("unknown op %v", a.Sem.Op)
	}
}

// funcOutput derives the output schema of an OpFunc activity. In-place
// functions (single argument equal to the output attribute, e.g. A2E on
// DATE) keep the schema unchanged; otherwise the generated attribute is
// appended and, when DropArgs is set, the argument attributes are removed
// (the paper's $2€: dollar cost out, euro cost in).
func funcOutput(a *Activity, in data.Schema) data.Schema {
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
}

// InPlace reports whether an OpFunc activity transforms an attribute
// without changing its reference name (§3.1: American and European dates
// share a reference name since both act as groupers).
func (a *Activity) InPlace() bool {
	return a.Sem.Op == OpFunc && len(a.Sem.FnArgs) == 1 && a.Sem.FnArgs[0] == a.Sem.OutAttr
}

// RecordInjective reports whether a function activity maps distinct input
// records to distinct output records, which is what duplicate-sensitive
// activities need in order to commute with it. Functions that keep their
// argument attributes are always record-injective; converting and in-place
// functions are injective exactly when the registered function is a
// bijection (only single-argument functions can be registered bijective in
// a meaningful way, so multi-argument converting functions are
// conservatively non-injective).
func (a *Activity) RecordInjective() bool {
	if a.Sem.Op != OpFunc {
		return false
	}
	if !a.InPlace() && !a.Sem.DropArgs {
		return true
	}
	return len(a.Sem.FnArgs) == 1 && algebra.IsBijective(a.Sem.Fn)
}

// CheckWellFormed verifies the semantic conditions that a regenerated
// workflow must satisfy; transitions are rejected when their resulting
// graph violates any of them. The checks implement the guards behind the
// paper's swap conditions (3) and (4) and the structural requirements of
// the binary operations:
//
//   - every activity's functionality schema is a subset of its input
//     schema(ta) — condition (3);
//   - every activity's declared RequiredIn attributes have providers —
//     condition (4), the Fig. 6 rejection;
//   - operation parameters refer to existing attributes, generated
//     attributes do not collide with existing ones;
//   - union inputs carry identical attribute sets;
//   - every target recordset receives exactly its schema.
func (g *Graph) CheckWellFormed() error {
	order, err := g.TopoSort()
	if err != nil {
		return err
	}
	return g.CheckWellFormedNodes(order)
}

// CheckWellFormedNodes verifies the well-formedness conditions for the
// given nodes only — the nodes a rewrite recomputed. Nodes untouched by
// the rewrite carried valid schemas in the parent state and need no
// re-checking.
func (g *Graph) CheckWellFormedNodes(ids []NodeID) error {
	for _, id := range ids {
		n := g.nodes[id]
		if n == nil {
			continue
		}
		switch n.Kind {
		case KindActivity:
			if err := checkActivity(n); err != nil {
				return errorf("workflow: activity %d (%s): %v", id, n.Label(), err)
			}
		case KindRecordset:
			if len(n.In) == 1 && !n.In[0].SameSet(n.RS.Schema) {
				return errorf("workflow: target %s expects schema {%s}, provider delivers {%s}",
					n.RS.Name, n.RS.Schema, n.In[0])
			}
		}
	}
	return nil
}

func checkActivity(n *Node) error {
	a := n.Act
	var all data.Schema
	if len(n.In) == 1 {
		all = n.In[0]
	} else {
		for _, in := range n.In {
			all = all.Union(in)
		}
	}
	if !all.HasAll(a.Fun) {
		return errorf("functionality schema {%s} not contained in input {%s}", a.Fun, all)
	}
	if !all.HasAll(a.RequiredIn) {
		return errorf("declared input attributes {%s} not all provided by {%s}", a.RequiredIn, all)
	}
	return checkOpParams(a, n.In)
}

func checkOpParams(a *Activity, in []data.Schema) error {
	switch a.Sem.Op {
	case OpFilter:
		if a.Sem.Pred == nil {
			return errorf("filter without predicate")
		}
	case OpNotNull, OpPKCheck:
		if len(a.Sem.Attrs) == 0 {
			return errorf("%s without attributes", a.Sem.Op)
		}
		if !in[0].HasAll(data.Schema(a.Sem.Attrs)) {
			return errorf("%s attributes {%v} not in input {%s}", a.Sem.Op, a.Sem.Attrs, in[0])
		}
	case OpProject:
		if !in[0].HasAll(data.Schema(a.Sem.Attrs)) {
			return errorf("projected-out attributes {%v} not in input {%s}", a.Sem.Attrs, in[0])
		}
	case OpFunc:
		if !in[0].HasAll(data.Schema(a.Sem.FnArgs)) {
			return errorf("function args {%v} not in input {%s}", a.Sem.FnArgs, in[0])
		}
		if !a.InPlace() && in[0].Has(a.Sem.OutAttr) && !data.Schema(a.Sem.FnArgs).Has(a.Sem.OutAttr) {
			return errorf("generated attribute %q already present in input {%s}", a.Sem.OutAttr, in[0])
		}
	case OpAggregate:
		if !in[0].HasAll(data.Schema(a.Sem.Attrs)) {
			return errorf("groupers {%v} not in input {%s}", a.Sem.Attrs, in[0])
		}
		if a.Sem.Agg != AggCount && !in[0].Has(a.Sem.AggAttr) {
			return errorf("aggregated attribute %q not in input {%s}", a.Sem.AggAttr, in[0])
		}
		if in[0].Has(a.Sem.OutAttr) && a.Sem.OutAttr != a.Sem.AggAttr {
			return errorf("generated attribute %q already present in input {%s}", a.Sem.OutAttr, in[0])
		}
	case OpSurrogateKey:
		if !in[0].Has(a.Sem.KeyAttr) {
			return errorf("production key %q not in input {%s}", a.Sem.KeyAttr, in[0])
		}
		if in[0].Has(a.Sem.OutAttr) {
			return errorf("surrogate attribute %q already present in input {%s}", a.Sem.OutAttr, in[0])
		}
	case OpMerged:
		cur := in[0].Clone()
		for _, comp := range a.Sem.Components {
			if !cur.HasAll(comp.Fun) {
				return errorf("merged component %s: functionality {%s} not in flow {%s}", comp.Sem, comp.Fun, cur)
			}
			if err := checkOpParams(comp, []data.Schema{cur}); err != nil {
				return errorf("merged component: %v", err)
			}
			next, err := DeriveOutput(comp, []data.Schema{cur})
			if err != nil {
				return err
			}
			cur = next
		}
	case OpUnion:
		if !in[0].SameSet(in[1]) {
			return errorf("union inputs differ: {%s} vs {%s}", in[0], in[1])
		}
	case OpJoin, OpDiff, OpIntersect:
		for i, s := range in {
			if !s.HasAll(data.Schema(a.Sem.Attrs)) {
				return errorf("%s keys {%v} not in input %d {%s}", a.Sem.Op, a.Sem.Attrs, i+1, s)
			}
		}
	}
	return nil
}

// wellFormedError is a well-formedness violation formatted only when its
// message is read: the search refuses most candidate rewrites on one and
// reads none of their messages.
type wellFormedError struct {
	format string
	args   []any
}

func errorf(format string, args ...any) error { return &wellFormedError{format, args} }

func (e *wellFormedError) Error() string { return fmt.Sprintf(e.format, e.args...) }
