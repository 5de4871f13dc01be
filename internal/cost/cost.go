// Package cost implements the discrimination criterion of the state-space
// search (§2.2): a pluggable cost model assigning each activity a cost that
// may depend on its position in the workflow (through the cardinalities
// that reach it), with the total cost of a state being the sum of its
// activities' costs, C(S) = Σ c(aᵢ).
//
// The default RowModel follows the paper's experimental setup: "a simple
// cost model taking into consideration only the number of processed rows
// based on simple formulae [15]" — linear scans cost n, sort/hash-based
// operations cost n·log₂n, and selectivities drive cardinality propagation.
package cost

import (
	"fmt"
	"math"
	"slices"

	"etlopt/internal/workflow"
)

// Model prices activities and propagates cardinalities. Implementations
// must be deterministic and free of state so that evaluations are
// position-dependent only through the input cardinalities.
type Model interface {
	// ActivityCost returns the cost of running the activity on inputs of
	// the given cardinalities.
	ActivityCost(a *workflow.Activity, in []float64) float64
	// OutputRows estimates the activity's output cardinality.
	OutputRows(a *workflow.Activity, in []float64) float64
}

// RowModel is the paper's row-count cost model. The zero value is ready to
// use.
type RowModel struct{}

// log2 returns log₂(n) clamped to 0 for n ≤ 1, keeping n·log₂n formulas
// monotone and non-negative on tiny inputs.
func log2(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(n)
}

// ActivityCost implements Model, by the activity's operator class: a
// row-local activity costs n; a duplicate-sensitive one, and one that reads
// a lookup, n·log₂n; a package its components' costs along its flow; a
// bag union n₁+n₂ and the keyed binaries a sort-based n·log₂n per side.
// "Reads a lookup ⇒ n·log₂n" is the model's one named exception: the
// engine streams surrogate keys and lookup key checks row by row.
func (RowModel) ActivityCost(a *workflow.Activity, in []float64) float64 {
	c := a.Class()
	switch {
	case a.Sem.Op == workflow.OpMerged:
		total := 0.0
		n := in[0]
		for _, comp := range a.Sem.Components {
			total += RowModel{}.ActivityCost(comp, []float64{n})
			n = RowModel{}.OutputRows(comp, []float64{n})
		}
		return total
	case c&workflow.Binary != 0 && c&workflow.ValueSensitive == 0:
		return in[0] + in[1]
	case c&workflow.Binary != 0:
		return in[0]*log2(in[0]) + in[1]*log2(in[1])
	case c&workflow.RowLocal != 0 && c&workflow.ReadsLookup == 0:
		return in[0]
	default:
		return in[0] * log2(in[0])
	}
}

// OutputRows implements Model using the activity's selectivity estimate:
// sel·n for unary activities (grouping ratio for aggregations), n₁+n₂ for
// union, sel·n₁·n₂ for join and sel·n₁ for difference/intersection.
func (RowModel) OutputRows(a *workflow.Activity, in []float64) float64 {
	switch a.Sem.Op {
	case workflow.OpUnion:
		return in[0] + in[1]
	case workflow.OpJoin:
		return a.Sel * in[0] * in[1]
	case workflow.OpDiff, workflow.OpIntersect:
		return a.Sel * in[0]
	case workflow.OpMerged:
		n := in[0]
		for _, comp := range a.Sem.Components {
			n = RowModel{}.OutputRows(comp, []float64{n})
		}
		return n
	default:
		return a.Sel * in[0]
	}
}

// Costing holds the evaluated cost of one state: per-node output
// cardinalities, per-node costs, and the total C(S). A flat costing stores
// the per-node figures densely, indexed by NodeID like the graph's own
// node table; has marks the nodes that were evaluated, so asking for a
// node the costing never saw stays distinguishable from a genuine zero.
// An overlay holds only the figures that differ from its flat parent's,
// over the same nodes. A costing is immutable once returned.
type Costing struct {
	Total float64

	cards, costs []float64
	has          []bool
	base         *Costing   // an overlay's parent
	over         []nodeCost // an overlay's figures
	// in is evalNode's scratch for the provider cardinalities handed to
	// the model; it lives here so that costing a node allocates nothing.
	in [2]float64
}

type nodeCost struct {
	id         workflow.NodeID
	card, cost float64
}

// newCosting returns an empty flat costing for node IDs below n.
func newCosting(n int) *Costing {
	vals := make([]float64, 2*n)
	return &Costing{cards: vals[:n:n], costs: vals[n:], has: make([]bool, n)}
}

// flat returns the costing holding c's dense figures: c or its base.
func (c *Costing) flat() *Costing {
	if c.base != nil {
		return c.base
	}
	return c
}

// Has reports whether the node was evaluated.
func (c *Costing) Has(id workflow.NodeID) bool {
	f := c.flat()
	return id > 0 && int(id) < len(f.has) && f.has[id]
}

// figures returns the node's cardinality and cost, if it was evaluated.
func (c *Costing) figures(id workflow.NodeID) (card, cost float64, ok bool) {
	if c.base != nil {
		for _, e := range c.over {
			if e.id == id {
				return e.card, e.cost, true
			}
		}
		c = c.base
	}
	if id > 0 && int(id) < len(c.has) && c.has[id] {
		return c.cards[id], c.costs[id], true
	}
	return 0, 0, false
}

// Card returns the node's output cardinality, 0 when it was not evaluated.
func (c *Costing) Card(id workflow.NodeID) float64 {
	card, _, _ := c.figures(id)
	return card
}

// Cost returns the node's cost, 0 when it was not evaluated.
func (c *Costing) Cost(id workflow.NodeID) float64 {
	_, cost, _ := c.figures(id)
	return cost
}

// Nodes returns the evaluated nodes in ascending ID order.
func (c *Costing) Nodes() []workflow.NodeID {
	var out []workflow.NodeID
	for id, ok := range c.flat().has {
		if ok {
			out = append(out, workflow.NodeID(id))
		}
	}
	return out
}

// Evaluate computes the full costing of a workflow under a model: source
// recordsets contribute their declared cardinality, every activity is
// priced on the cardinalities of its providers, and C(S) sums the activity
// costs.
//
// Evaluate and EvaluateIncremental read the graph (and prev) and allocate
// a fresh Costing. The parallel search relies on this — worker goroutines
// cost different successor graphs concurrently, sharing a parent Costing
// read-only. Evaluate sorts through TopoSort, the one writer of the
// graph's memoized order: prime it (call TopoSort once) before sharing one
// graph across goroutines. EvaluateIncremental writes nothing.
func Evaluate(g *workflow.Graph, m Model) (*Costing, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	c := newCosting(int(g.MaxID()) + 1)
	for _, id := range order {
		if err := c.evalNode(g, m, id); err != nil {
			return nil, err
		}
		c.Total += c.costs[id]
	}
	return c, nil
}

// evalNode computes the cardinality and cost of one node from its
// providers' already-computed cardinalities and records them.
func (c *Costing) evalNode(g *workflow.Graph, m Model, id workflow.NodeID) error {
	n := g.Node(id)
	if n == nil {
		return fmt.Errorf("cost: unknown node %d", id)
	}
	in := c.in[:0]
	for _, p := range g.Providers(id) {
		card, _, ok := c.figures(p)
		if !ok {
			return fmt.Errorf("cost: provider %d of node %d not evaluated", p, id)
		}
		in = append(in, card)
	}
	var card, cost float64
	switch n.Kind {
	case workflow.KindRecordset:
		card = n.RS.Rows
		if len(in) == 1 {
			card = in[0] // target: stores what arrives
		}
	case workflow.KindActivity:
		if len(in) == 0 {
			return fmt.Errorf("cost: activity %d has no provider", id)
		}
		card, cost = m.OutputRows(n.Act, in), m.ActivityCost(n.Act, in)
	}
	// An overlay keeps only the figures whose bits differ from its base's.
	if c.base == nil {
		c.cards[id], c.costs[id], c.has[id] = card, cost, true
	} else if bc, bs, _ := c.base.figures(id); math.Float64bits(bc) != math.Float64bits(card) || math.Float64bits(bs) != math.Float64bits(cost) {
		c.over = append(c.over, nodeCost{id, card, cost})
	}
	return nil
}

// EvaluateIncremental re-evaluates a derived state semi-incrementally
// (§4.1): "the variation of the cost from state S to S' can be determined
// by computing only the cost of the path from the affected activities
// towards the target". prev is the costing of the parent state (whose node
// IDs are stable across the transition), g the derived graph and dirty the
// nodes the transition touched: every node whose activity or provider list
// differs from the parent's must be listed, except that a direct consumer
// of a listed node may be left out. Dirty nodes are recomputed, and from
// them the recomputation walks towards the targets for as long as a
// node's output cardinality comes out different from the parent's; where
// it reconverges, everything further down is the parent's. Total is
// re-summed over every node in the canonical topological order, exactly
// as Evaluate sums it, so the two agree bit for bit. A successor is sorted
// into a stack buffer through TopoOrder and keeps no order. When prev is
// flat and g has exactly its nodes, as after a swap, the result is an
// overlay of prev; otherwise it is flat.
func EvaluateIncremental(prev *Costing, g *workflow.Graph, m Model, dirty []workflow.NodeID) (*Costing, error) {
	var buf [256]workflow.NodeID // up to 256 nodes sort without allocating
	order, err := g.TopoOrder(buf[:0])
	if err != nil {
		return nil, err
	}
	var c *Costing
	if prev.base == nil && keepsNodes(prev, g) {
		c = &Costing{base: prev, over: make([]nodeCost, 0, len(dirty))}
	} else {
		c = newCosting(int(g.MaxID()) + 1)
		copy(c.cards, prev.flat().cards)
		copy(c.costs, prev.flat().costs)
		for _, e := range prev.over {
			c.cards[e.id], c.costs[e.id] = e.card, e.cost
		}
	}
	// A recomputed node marks its consumers, all later in the order.
	var marks [256]bool
	recompute := marks[:]
	if n := int(g.MaxID()) + 1; n > len(marks) {
		recompute = make([]bool, n)
	}
	for _, id := range dirty {
		if g.Node(id) != nil {
			recompute[id] = true
		}
	}
	for _, id := range order {
		// A node the parent never costed (a rewrite that adds nodes) is
		// recomputed too.
		known := prev.Has(id)
		if known && !recompute[id] {
			if c.base == nil {
				c.has[id] = true
			}
			c.Total += c.flat().costs[id]
			continue
		}
		was := prev.Card(id)
		if err := c.evalNode(g, m, id); err != nil {
			return nil, err
		}
		if !known || c.Card(id) != was || slices.Contains(dirty, id) {
			for _, s := range g.Consumers(id) {
				recompute[s] = true
			}
		}
		c.Total += c.Cost(id)
	}
	return c, nil
}

// keepsNodes reports whether g has exactly prev's nodes: IDs are never
// reused, so it added none if its ID counter sizes prev, removed none if
// it has as many.
func keepsNodes(prev *Costing, g *workflow.Graph) bool {
	n := 0
	for _, ok := range prev.has {
		if ok {
			n++
		}
	}
	return int(g.MaxID())+1 == len(prev.has) && n == g.Len()
}

// Improvement returns the percentage improvement of cost over base:
// 100·(base−cost)/base, or 0 when base is 0.
func Improvement(base, cost float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - cost) / base
}
