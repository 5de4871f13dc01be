package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"etlopt/internal/algebra"
	"etlopt/internal/workflow"
)

// The checks that read proofs off the abstract states of flow.abs. All
// findings carry the interval/lineage evidence that justifies them, so a
// reader can audit the proof without re-running the analysis.

// guardEvidence renders the upstream domains of every attribute a
// predicate reads, sorted for determinism.
func guardEvidence(pred algebra.Expr, in *NodeAbs) string {
	attrs := append([]string(nil), algebra.AttrSet(pred)...)
	sort.Strings(attrs)
	parts := make([]string, 0, len(attrs))
	for _, a := range attrs {
		parts = append(parts, in.DomainString(a))
	}
	if len(parts) == 0 {
		return "no attribute references"
	}
	return strings.Join(parts, "; ")
}

// providerState returns the abstract state feeding a unary activity.
func (c *flow) providerState(id workflow.NodeID) *NodeAbs {
	preds := c.g.Providers(id)
	if len(preds) != 1 {
		return nil
	}
	return c.abs.Nodes[preds[0]]
}

// deadFilters flags filters whose predicate the interpreter proves true
// for every surviving upstream row, and not-null guards over attributes
// already proven non-null. The operation then passes every row: it costs
// a scan but changes nothing, so the finding is advice, not a warning —
// the workflow is correct, just wasteful.
func deadFilters(c *flow) []Finding {
	g := c.g
	var out []Finding
	for _, id := range g.Activities() {
		a := g.Node(id).Act
		in := c.providerState(id)
		if in == nil {
			continue
		}
		switch a.Sem.Op {
		case workflow.OpFilter:
			if evalPred(a.Sem.Pred, in) == triTrue {
				out = append(out, Finding{
					Severity: Advice, Check: "dead-filter", Node: id,
					Message: fmt.Sprintf("filter %s passes every row: %s; selectivity interval [1,1]",
						a.Sem.Pred, guardEvidence(a.Sem.Pred, in)),
					Fix: "remove the filter, or tighten it if rows were meant to be rejected",
				})
			}
		case workflow.OpNotNull:
			allProven := len(a.Sem.Attrs) > 0
			parts := make([]string, 0, len(a.Sem.Attrs))
			for _, attr := range a.Sem.Attrs {
				d, ok := in.Attrs[attr]
				if !ok || d.MaybeNull {
					allProven = false
					break
				}
				parts = append(parts, in.DomainString(attr))
			}
			if allProven {
				out = append(out, Finding{
					Severity: Advice, Check: "dead-filter", Node: id,
					Message: fmt.Sprintf("not-null check passes every row: %s; selectivity interval [1,1]",
						strings.Join(parts, "; ")),
					Fix: "remove the guard, or move it upstream of whatever already proves the attributes non-null",
				})
			}
		}
	}
	return out
}

// unsatisfiableGuards flags filter predicates the interpreter proves
// false for every upstream row: the flow downstream is statically empty,
// which is almost always a mistyped constant or inverted comparison, so
// the finding is a warning.
func unsatisfiableGuards(c *flow) []Finding {
	g := c.g
	var out []Finding
	for _, id := range g.Activities() {
		a := g.Node(id).Act
		if a.Sem.Op != workflow.OpFilter {
			continue
		}
		in := c.providerState(id)
		if in == nil {
			continue
		}
		if evalPred(a.Sem.Pred, in) == triFalse {
			out = append(out, Finding{
				Severity: Warning, Check: "unsatisfiable-guard", Node: id,
				Message: fmt.Sprintf("no row can satisfy %s: %s; selectivity interval [0,0], everything downstream is dead",
					a.Sem.Pred, guardEvidence(a.Sem.Pred, in)),
				Fix: "fix the predicate's constant or direction; the upstream domains exclude every value it accepts",
			})
		}
	}
	return out
}

// brokenProvenance flags target columns whose abstract provenance set is
// empty: no source attribute's value flows into them, so the column is
// filled from synthesized values only (e.g. a count aggregate) and can
// never carry source data. Columns untouched by the flow are left to the
// schema passes.
func brokenProvenance(c *flow) []Finding {
	g, res := c.g, c.abs
	var out []Finding
	for _, id := range g.Targets() {
		n := g.Node(id)
		st := res.Nodes[id]
		if st == nil {
			continue
		}
		for _, attr := range n.RS.Schema {
			d, ok := st.Attrs[attr]
			if !ok || len(d.Roots) > 0 {
				continue
			}
			origin := "a synthesizing activity"
			if d.GenBy >= 0 {
				gen := g.Node(d.GenBy)
				if gen != nil && gen.Act != nil {
					origin = fmt.Sprintf("node %d (%s)", d.GenBy, gen.Act.Sem)
				}
			}
			out = append(out, Finding{
				Severity: Warning, Check: "broken-provenance", Node: id,
				Message: fmt.Sprintf("target column %s.%s is reached by no source attribute: its value is synthesized by %s (provenance %s)",
					n.RS.Name, attr, origin, RootsString(d.Roots)),
				Fix: "wire a source attribute into the column, or document it as derived and exclude it from lineage audits",
			})
		}
	}
	return out
}

// cardinalityBlowups flags nodes whose estimated output cardinality
// interval exceeds CardinalityBound times the total declared source rows
// — typically an equi-join whose selectivity estimate admits a near-cross
// product. The bound is configurable via WorkflowOptions.
func cardinalityBlowups(c *flow) []Finding {
	g, res, o := c.g, c.abs, c.opts
	if res.SourceRows <= 0 || o.CardinalityBound <= 0 {
		return nil
	}
	limit := o.CardinalityBound * res.SourceRows
	var out []Finding
	for _, id := range g.Activities() {
		st := res.Nodes[id]
		if st == nil || st.Card.IsEmpty() {
			continue
		}
		if st.Card.Hi > limit || math.IsInf(st.Card.Hi, 1) {
			a := g.Node(id).Act
			out = append(out, Finding{
				Severity: Warning, Check: "cardinality-blowup", Node: id,
				Message: fmt.Sprintf("%s output cardinality %s exceeds %gx the %.0f total source rows (limit %.0f)",
					a.Sem.Op, st.Card, o.CardinalityBound, res.SourceRows, limit),
				Fix: "check the activity's selectivity estimate, or raise the bound with -card-bound if the blowup is intended",
			})
		}
	}
	return out
}
