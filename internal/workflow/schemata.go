package workflow

import (
	"fmt"

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
		n := g.mutableNode(id)
		preds := g.pred[id]
		n.In = make([]data.Schema, len(preds))
		for i, p := range preds {
			// Schemas are immutable once derived, so sharing the
			// provider's Out slice is safe and avoids one allocation per
			// node per regeneration.
			n.In[i] = g.nodes[p].Out
		}
		switch n.Kind {
		case KindRecordset:
			n.Out = n.RS.Schema.Clone()
		case KindActivity:
			if len(preds) == 0 {
				return fmt.Errorf("workflow: activity %d (%s) has no provider", id, n.Label())
			}
			out, err := DeriveOutput(n.Act, n.In)
			if err != nil {
				return fmt.Errorf("workflow: activity %d (%s): %w", id, n.Label(), err)
			}
			n.Out = out
		}
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

// RegenerateSchemataIncremental recomputes the derived schemata of the
// dirty nodes and of every node whose stored input schema no longer
// matches its provider's output — the nodes a graph rewrite actually
// affected. Untouched nodes keep their (structurally shared) schemas. It
// returns the IDs of the recomputed nodes so the caller can restrict
// well-formedness checking to them.
func (g *Graph) RegenerateSchemataIncremental(dirty []NodeID) ([]NodeID, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	dirtySet := make(map[NodeID]bool, len(dirty))
	for _, id := range dirty {
		dirtySet[id] = true
	}
	var recomputed []NodeID
	for _, id := range order {
		n := g.nodes[id]
		preds := g.pred[id]
		need := dirtySet[id] || len(n.In) != len(preds)
		if !need {
			for i, p := range preds {
				cur := g.nodes[p].Out
				if !sameSlice(n.In[i], cur) && !n.In[i].Equal(cur) {
					need = true
					break
				}
			}
		}
		if !need {
			continue
		}
		n = g.mutableNode(id)
		n.In = make([]data.Schema, len(preds))
		for i, p := range preds {
			n.In[i] = g.nodes[p].Out
		}
		switch n.Kind {
		case KindRecordset:
			n.Out = n.RS.Schema.Clone()
		case KindActivity:
			if len(preds) == 0 {
				return nil, fmt.Errorf("workflow: activity %d (%s) has no provider", id, n.Label())
			}
			out, err := DeriveOutput(n.Act, n.In)
			if err != nil {
				return nil, fmt.Errorf("workflow: activity %d (%s): %w", id, n.Label(), err)
			}
			n.Out = out
		}
		recomputed = append(recomputed, id)
	}
	return recomputed, nil
}

// DeriveOutput computes an activity's output schema from its input
// schemata. RegenerateSchemata stores the result per node; the engine calls
// it for the components of a merged package, which are not nodes.
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
	for _, id := range order {
		n := g.nodes[id]
		switch n.Kind {
		case KindActivity:
			if err := checkActivity(n); err != nil {
				return fmt.Errorf("workflow: activity %d (%s): %w", id, n.Label(), err)
			}
		case KindRecordset:
			if len(n.In) == 1 && !n.In[0].SameSet(n.RS.Schema) {
				return fmt.Errorf("workflow: target %s expects schema {%s}, provider delivers {%s}",
					n.RS.Name, n.RS.Schema, n.In[0])
			}
		}
	}
	return nil
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
				return fmt.Errorf("workflow: activity %d (%s): %w", id, n.Label(), err)
			}
		case KindRecordset:
			if len(n.In) == 1 && !n.In[0].SameSet(n.RS.Schema) {
				return fmt.Errorf("workflow: target %s expects schema {%s}, provider delivers {%s}",
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
		return fmt.Errorf("functionality schema {%s} not contained in input {%s}", a.Fun, all)
	}
	if !all.HasAll(a.RequiredIn) {
		return fmt.Errorf("declared input attributes {%s} not all provided by {%s}", a.RequiredIn, all)
	}
	return checkOpParams(a, n.In)
}

func checkOpParams(a *Activity, in []data.Schema) error {
	switch a.Sem.Op {
	case OpFilter:
		if a.Sem.Pred == nil {
			return fmt.Errorf("filter without predicate")
		}
	case OpNotNull, OpPKCheck:
		if len(a.Sem.Attrs) == 0 {
			return fmt.Errorf("%s without attributes", a.Sem.Op)
		}
		if !in[0].HasAll(data.Schema(a.Sem.Attrs)) {
			return fmt.Errorf("%s attributes {%v} not in input {%s}", a.Sem.Op, a.Sem.Attrs, in[0])
		}
	case OpProject:
		if !in[0].HasAll(data.Schema(a.Sem.Attrs)) {
			return fmt.Errorf("projected-out attributes {%v} not in input {%s}", a.Sem.Attrs, in[0])
		}
	case OpFunc:
		if !in[0].HasAll(data.Schema(a.Sem.FnArgs)) {
			return fmt.Errorf("function args {%v} not in input {%s}", a.Sem.FnArgs, in[0])
		}
		if !a.InPlace() && in[0].Has(a.Sem.OutAttr) && !data.Schema(a.Sem.FnArgs).Has(a.Sem.OutAttr) {
			return fmt.Errorf("generated attribute %q already present in input {%s}", a.Sem.OutAttr, in[0])
		}
	case OpAggregate:
		if !in[0].HasAll(data.Schema(a.Sem.Attrs)) {
			return fmt.Errorf("groupers {%v} not in input {%s}", a.Sem.Attrs, in[0])
		}
		if a.Sem.Agg != AggCount && !in[0].Has(a.Sem.AggAttr) {
			return fmt.Errorf("aggregated attribute %q not in input {%s}", a.Sem.AggAttr, in[0])
		}
		if in[0].Has(a.Sem.OutAttr) && a.Sem.OutAttr != a.Sem.AggAttr {
			return fmt.Errorf("generated attribute %q already present in input {%s}", a.Sem.OutAttr, in[0])
		}
	case OpSurrogateKey:
		if !in[0].Has(a.Sem.KeyAttr) {
			return fmt.Errorf("production key %q not in input {%s}", a.Sem.KeyAttr, in[0])
		}
		if in[0].Has(a.Sem.OutAttr) {
			return fmt.Errorf("surrogate attribute %q already present in input {%s}", a.Sem.OutAttr, in[0])
		}
	case OpMerged:
		cur := in[0].Clone()
		for _, comp := range a.Sem.Components {
			if !cur.HasAll(comp.Fun) {
				return fmt.Errorf("merged component %s: functionality {%s} not in flow {%s}", comp.Sem, comp.Fun, cur)
			}
			if err := checkOpParams(comp, []data.Schema{cur}); err != nil {
				return fmt.Errorf("merged component: %w", err)
			}
			next, err := DeriveOutput(comp, []data.Schema{cur})
			if err != nil {
				return err
			}
			cur = next
		}
	case OpUnion:
		if !in[0].SameSet(in[1]) {
			return fmt.Errorf("union inputs differ: {%s} vs {%s}", in[0], in[1])
		}
	case OpJoin, OpDiff, OpIntersect:
		for i, s := range in {
			if !s.HasAll(data.Schema(a.Sem.Attrs)) {
				return fmt.Errorf("%s keys {%v} not in input %d {%s}", a.Sem.Op, a.Sem.Attrs, i+1, s)
			}
		}
	}
	return nil
}
