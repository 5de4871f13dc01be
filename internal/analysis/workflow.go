package analysis

import (
	"fmt"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// The workflow checks: schema dataflow over provider edges (§3.1's naming
// principle — one Ωn reference name, one entity — and the auxiliary-schema
// discipline of §3.2), the design checks absorbed from the former
// internal/lint, and the proofs read off the abstract interpreter
// (absint_passes.go). All of them read one flow.

// flow is the analysis context of one graph. CheckWorkflowOpts builds it
// once — schemata regenerated, the abstract interpreter run, liveness
// computed — and every workflow check is a reader of it.
type flow struct {
	g    *workflow.Graph
	opts *WorkflowOptions
	// abs answers "what can this attribute hold here": value interval,
	// nullability and provenance per node output.
	abs *AbsResult
	// live answers "is this attribute read below here": live[id] holds the
	// attributes that an activity downstream of node id's output reads or a
	// recordset there stores, on a path that carries them. A projection
	// dropping an attribute disposes of it; that is not a read.
	live map[workflow.NodeID]data.Schema
}

func newFlow(g *workflow.Graph, opts *WorkflowOptions) (*flow, error) {
	abs, err := Interpret(g)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	// Backward liveness, consumers before providers. liveIn is what a node
	// needs on its input: its own reads plus whatever it lets through.
	live := make(map[workflow.NodeID]data.Schema, len(order))
	liveIn := make(map[workflow.NodeID]data.Schema, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var below data.Schema
		for _, c := range g.Consumers(id) {
			below = below.Union(liveIn[c])
		}
		live[id] = below
		n := g.Node(id)
		if n.Kind == workflow.KindRecordset {
			liveIn[id] = n.RS.Schema.Union(below)
			continue
		}
		a := n.Act
		reads, drops := a.Fun.Union(a.RequiredIn).Union(semParams(a)), a.PrjOut
		if a.Sem.Op == workflow.OpProject {
			reads, drops = reads.Minus(a.Sem.Attrs), drops.Union(a.Sem.Attrs)
		}
		liveIn[id] = reads.Union(below.Minus(drops))
	}
	return &flow{g: g, opts: opts, abs: abs, live: live}, nil
}

// availIn returns the union of the activity node's derived input
// schemata — everything upstream outputs actually deliver.
func availIn(n *workflow.Node) data.Schema {
	if len(n.In) == 1 {
		return n.In[0]
	}
	var all data.Schema
	for _, in := range n.In {
		all = all.Union(in)
	}
	return all
}

// semParams lists the attributes the operation's parameters reference —
// the Ωn names the semantics inspect, excluding generated outputs.
func semParams(a *workflow.Activity) []string {
	switch a.Sem.Op {
	case workflow.OpNotNull, workflow.OpPKCheck, workflow.OpProject,
		workflow.OpJoin, workflow.OpDiff, workflow.OpIntersect:
		return a.Sem.Attrs
	case workflow.OpFunc:
		return a.Sem.FnArgs
	case workflow.OpAggregate:
		params := append([]string(nil), a.Sem.Attrs...)
		if a.Sem.Agg != workflow.AggCount && a.Sem.AggAttr != "" {
			params = append(params, a.Sem.AggAttr)
		}
		return params
	case workflow.OpSurrogateKey:
		return []string{a.Sem.KeyAttr}
	default:
		return nil
	}
}

// shadowedReferences flags joins whose inputs share a non-key attribute:
// under the §3.1 naming principle one reference name denotes one entity,
// and the joined output collapses two under one name. A generated name
// colliding with an incoming one is Graph.CheckWellFormed's to refuse.
func shadowedReferences(c *flow) []Finding {
	g := c.g
	var out []Finding
	for _, id := range g.Activities() {
		n := g.Node(id)
		if n.Act.Sem.Op != workflow.OpJoin {
			continue
		}
		for _, attr := range n.In[0].Intersect(n.In[1]).Minus(n.Act.Sem.Attrs) {
			out = append(out, Finding{
				Severity: Warning, Check: "shadowed-reference", Node: id,
				Message: fmt.Sprintf("both join inputs carry non-key attribute %q; the joined output collapses two entities under one name", attr),
				Fix:     "rename the attribute on one branch or project it out before the join",
			})
		}
	}
	return out
}

// deadGenerations flags attributes an activity generates that nothing
// downstream consumes and no target stores — computed, carried, and
// thrown away.
func deadGenerations(c *flow) []Finding {
	g := c.g
	var out []Finding
	for _, id := range g.Activities() {
		n := g.Node(id)
		a := n.Act
		all := availIn(n)
		for _, attr := range a.Gen {
			if all.Has(attr) {
				continue // in-place transformation, not a fresh name
			}
			if c.live[id].Has(attr) {
				continue
			}
			out = append(out, Finding{
				Severity: Advice, Check: "dead-generation", Node: id,
				Message: fmt.Sprintf("attribute %q is generated but never consumed by any activity and never stored by a target", attr),
				Fix:     "drop the generation, or store the attribute in a target",
			})
		}
	}
	return out
}

// auxSchemaGaps flags auxiliary schemata that under-cover the activity's
// semantics. The swap guards (§3.3) and the homologous-activity test
// (§3.2) reason over Fun/Gen/PrjOut, so a gap there lets the optimizer
// prove equivalences that do not hold.
func auxSchemaGaps(c *flow) []Finding {
	g := c.g
	var out []Finding
	for _, id := range g.Activities() {
		n := g.Node(id)
		a := n.Act
		for _, attr := range semParams(a) {
			if attr != "" && !a.Fun.Has(attr) {
				out = append(out, Finding{
					Severity: Warning, Check: "aux-schema-gap", Node: id,
					Message: fmt.Sprintf("operation inspects %q but the functionality schema does not declare it; swap guards reason over Fun", attr),
					Fix:     fmt.Sprintf("add %q to the activity's functionality schema", attr),
				})
			}
		}
		genOut := ""
		switch a.Sem.Op {
		case workflow.OpFunc:
			if !a.InPlace() {
				genOut = a.Sem.OutAttr
			}
		case workflow.OpAggregate:
			if a.Sem.OutAttr != a.Sem.AggAttr {
				genOut = a.Sem.OutAttr
			}
		case workflow.OpSurrogateKey:
			genOut = a.Sem.OutAttr
		}
		if genOut != "" && !a.Gen.Has(genOut) {
			out = append(out, Finding{
				Severity: Warning, Check: "aux-schema-gap", Node: id,
				Message: fmt.Sprintf("operation generates %q but the generated schema does not declare it", genOut),
				Fix:     fmt.Sprintf("add %q to the activity's generated schema", genOut),
			})
		}
		all := availIn(n)
		for _, attr := range a.PrjOut {
			if !all.Has(attr) && !a.Gen.Has(attr) {
				out = append(out, Finding{
					Severity: Warning, Check: "aux-schema-gap", Node: id,
					Message: fmt.Sprintf("projected-out schema drops %q, which is neither delivered upstream nor generated here", attr),
					Fix:     fmt.Sprintf("remove %q from the projected-out schema or correct the reference", attr),
				})
			}
		}
	}
	return out
}

// deadAttributes reports source attributes that no activity reads and no
// target stores — rows carry them through the whole flow for nothing. A
// name denotes one entity workflow-wide (§3.1), so an attribute any
// source's flow needs is alive at every source; one a projection names is
// being dropped already, and late-projection judges where.
func deadAttributes(c *flow) []Finding {
	var alive data.Schema
	for _, id := range c.g.Sources() {
		alive = alive.Union(c.live[id])
	}
	for _, id := range c.g.Activities() {
		if a := c.g.Node(id).Act; a.Sem.Op == workflow.OpProject {
			alive = alive.Union(a.Sem.Attrs)
		}
	}
	var out []Finding
	for _, id := range c.g.Sources() {
		n := c.g.Node(id)
		for _, attr := range n.RS.Schema.Minus(alive) {
			out = append(out, Finding{
				Severity: Advice, Node: id, Check: "dead-attribute",
				Message: fmt.Sprintf("source %s attribute %q is never read and never stored; project it out at the source",
					n.RS.Name, attr),
				Fix: "project the attribute out at the source, or remove it from the source schema",
			})
		}
	}
	return out
}

// unprotectedLookups reports surrogate-key activities whose production key
// may be NULL on arrival — no not-null check, surviving comparison or
// join guards it on every path: a NULL key cannot resolve and fails the
// load at run time.
func unprotectedLookups(c *flow) []Finding {
	var out []Finding
	for _, id := range c.g.Activities() {
		a := c.g.Node(id).Act
		if a.Sem.Op != workflow.OpSurrogateKey {
			continue
		}
		if d, ok := c.providerState(id).Attrs[a.Sem.KeyAttr]; !ok || d.MaybeNull {
			out = append(out, Finding{
				Severity: Warning, Node: id, Check: "unguarded-surrogate-key",
				Message: fmt.Sprintf("no upstream not-null check on %q; a NULL production key fails the lookup at run time",
					a.Sem.KeyAttr),
				Fix: fmt.Sprintf("add a not-null check on %q upstream of the surrogate-key assignment", a.Sem.KeyAttr),
			})
		}
	}
	return out
}

// selectivityRanges reports selectivity estimates outside (0, 1], which
// the cost model cannot price. The workflow format accepts any number and
// the optimizer runs on it without complaint; unions carry no estimate.
func selectivityRanges(c *flow) []Finding {
	var out []Finding
	for _, id := range c.g.Activities() {
		a := c.g.Node(id).Act
		if a.Sem.Op == workflow.OpUnion || (a.Sel > 0 && a.Sel <= 1) {
			continue
		}
		what, fix := "selectivity", "estimate the selectivity as a value in (0,1]"
		if a.Sem.Op == workflow.OpJoin {
			what, fix = "join selectivity", "estimate the join match fraction as a value in (0,1]"
		}
		out = append(out, Finding{
			Severity: Warning, Node: id, Check: "selectivity-range",
			Message: fmt.Sprintf("%s %g outside (0,1]", what, a.Sel),
			Fix:     fix,
		})
	}
	return out
}

// redundantActivities reports directly repeated activities with identical
// semantics — the second is a no-op for filters and checks, and a likely
// copy-paste error for everything else.
func redundantActivities(c *flow) []Finding {
	g := c.g
	var out []Finding
	for _, id := range g.Activities() {
		n := g.Node(id)
		if n.Act.IsBinary() {
			continue
		}
		for _, c := range g.Consumers(id) {
			cn := g.Node(c)
			if cn.Kind == workflow.KindActivity && !cn.Act.IsBinary() &&
				cn.Act.SameOperation(n.Act) {
				out = append(out, Finding{
					Severity: Advice, Node: c, Check: "redundant-activity",
					Message: fmt.Sprintf("repeats its provider's operation %s", n.Act.Sem),
					Fix:     "remove the repeated activity",
				})
			}
		}
	}
	return out
}

// lateProjections reports projections whose dropped attributes were last
// read far upstream: every row between the last reader and the projection
// carried the attribute for nothing. (The optimizer can often push the
// projection itself; this check fires even when swap conditions block it.)
func lateProjections(c *flow) []Finding {
	var out []Finding
	for _, id := range c.g.Activities() {
		a := c.g.Node(id).Act
		if a.Sem.Op != workflow.OpProject {
			continue
		}
		for _, attr := range a.Sem.Attrs {
			// "Far" = more than two nodes of slack.
			if c.slack(id, attr) > 2 {
				out = append(out, Finding{
					Severity: Advice, Node: id, Check: "late-projection",
					Message: fmt.Sprintf("attribute %q is dead long before this projection; consider dropping it earlier", attr),
					Fix:     "move the projection upstream, next to the attribute's last reader",
				})
				break
			}
		}
	}
	return out
}

// slack counts the nodes on the provider path above id that carry attr
// without anything at or below them needing it: the walk stops at the
// attribute's last reader, at the activity that generated it and at a fork
// whose other branch still reads it. The source recordset counts as one
// node; where two inputs deliver the attribute the longer path counts.
func (c *flow) slack(id workflow.NodeID, attr string) int {
	most := 0
	for _, p := range c.g.Providers(id) {
		n := c.g.Node(p)
		if !n.Out.Has(attr) || c.live[p].Has(attr) {
			continue
		}
		if n.Kind == workflow.KindActivity && (n.Act.Fun.Has(attr) || n.Act.Gen.Has(attr)) {
			continue
		}
		most = max(most, 1+c.slack(p, attr))
	}
	return most
}
