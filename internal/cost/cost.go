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

// ActivityCost implements Model: filters and per-row transformations cost
// n; duplicate-sensitive and key-assigning operations cost n·log₂n; binary
// operations charge both inputs (n₁+n₂ for union, sort-based n·log₂n per
// side for join-like operations).
func (RowModel) ActivityCost(a *workflow.Activity, in []float64) float64 {
	switch a.Sem.Op {
	case workflow.OpFilter, workflow.OpNotNull, workflow.OpProject, workflow.OpFunc:
		return in[0]
	case workflow.OpPKCheck, workflow.OpDistinct, workflow.OpAggregate, workflow.OpSurrogateKey:
		return in[0] * log2(in[0])
	case workflow.OpMerged:
		total := 0.0
		n := in[0]
		for _, comp := range a.Sem.Components {
			total += RowModel{}.ActivityCost(comp, []float64{n})
			n = RowModel{}.OutputRows(comp, []float64{n})
		}
		return total
	case workflow.OpUnion:
		return in[0] + in[1]
	case workflow.OpJoin, workflow.OpDiff, workflow.OpIntersect:
		return in[0]*log2(in[0]) + in[1]*log2(in[1])
	default:
		return in[0]
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
// cardinalities, per-node costs, and the total C(S). The per-node figures
// are stored densely, indexed by NodeID like the graph's own node table;
// has marks the nodes that were evaluated, so asking for a node the
// costing never saw stays distinguishable from a genuine zero.
type Costing struct {
	Total float64

	cards, costs []float64
	has          []bool
	// in is evalNode's scratch for the provider cardinalities handed to
	// the model; it lives here so that costing a node allocates nothing.
	in [2]float64
}

// newCosting returns an empty costing for node IDs below n.
func newCosting(n int) *Costing {
	vals := make([]float64, 2*n)
	return &Costing{cards: vals[:n:n], costs: vals[n:], has: make([]bool, n)}
}

// Has reports whether the node was evaluated.
func (c *Costing) Has(id workflow.NodeID) bool {
	return id > 0 && int(id) < len(c.has) && c.has[id]
}

// Card returns the node's output cardinality, 0 when it was not evaluated.
func (c *Costing) Card(id workflow.NodeID) float64 {
	if !c.Has(id) {
		return 0
	}
	return c.cards[id]
}

// Cost returns the node's cost, 0 when it was not evaluated.
func (c *Costing) Cost(id workflow.NodeID) float64 {
	if !c.Has(id) {
		return 0
	}
	return c.costs[id]
}

// Nodes returns the evaluated nodes in ascending ID order.
func (c *Costing) Nodes() []workflow.NodeID {
	var out []workflow.NodeID
	for id, ok := range c.has {
		if ok {
			out = append(out, workflow.NodeID(id))
		}
	}
	return out
}

// Clone returns an independent copy.
func (c *Costing) Clone() *Costing {
	out := newCosting(len(c.has))
	out.Total = c.Total
	copy(out.cards, c.cards)
	copy(out.costs, c.costs)
	copy(out.has, c.has)
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
// providers' already-computed cardinalities and marks it evaluated.
func (c *Costing) evalNode(g *workflow.Graph, m Model, id workflow.NodeID) error {
	n := g.Node(id)
	if n == nil {
		return fmt.Errorf("cost: unknown node %d", id)
	}
	in := c.in[:0]
	for _, p := range g.Providers(id) {
		if !c.Has(p) {
			return fmt.Errorf("cost: provider %d of node %d not evaluated", p, id)
		}
		in = append(in, c.cards[p])
	}
	switch n.Kind {
	case workflow.KindRecordset:
		if len(in) == 1 {
			c.cards[id] = in[0] // target: stores what arrives
		} else {
			c.cards[id] = n.RS.Rows
		}
		c.costs[id] = 0
	case workflow.KindActivity:
		if len(in) == 0 {
			return fmt.Errorf("cost: activity %d has no provider", id)
		}
		c.costs[id] = m.ActivityCost(n.Act, in)
		c.cards[id] = m.OutputRows(n.Act, in)
	}
	c.has[id] = true
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
// it reconverges, everything further down is copied from prev like the
// rest of the state. Total is re-summed over every node in the canonical
// topological order, exactly as Evaluate sums it, so the two agree bit
// for bit. A successor is sorted into a stack buffer through TopoOrder
// and keeps no order: its costing allocates only the Costing.
func EvaluateIncremental(prev *Costing, g *workflow.Graph, m Model, dirty []workflow.NodeID) (*Costing, error) {
	var buf [256]workflow.NodeID // up to 256 nodes sort without allocating
	order, err := g.TopoOrder(buf[:0])
	if err != nil {
		return nil, err
	}
	c := newCosting(int(g.MaxID()) + 1)
	copy(c.cards, prev.cards)
	copy(c.costs, prev.costs)
	// Until the pass below reaches a node, c.has marks it as to be
	// recomputed rather than as evaluated: a recomputed node marks its
	// consumers, which all come later in the order, and a node only ever
	// reads providers the pass has already turned into the real thing.
	for _, id := range dirty {
		if g.Node(id) != nil {
			c.has[id] = true
		}
	}
	for _, id := range order {
		// A node the parent never costed (should not happen for clean
		// transitions) is recomputed too.
		known := prev.Has(id)
		if known && !c.has[id] {
			c.has[id] = true
		} else {
			was := c.cards[id]
			if err := c.evalNode(g, m, id); err != nil {
				return nil, err
			}
			if !known || c.cards[id] != was || slices.Contains(dirty, id) {
				for _, s := range g.Consumers(id) {
					c.has[s] = true
				}
			}
		}
		c.Total += c.costs[id]
	}
	return c, nil
}

// Improvement returns the percentage improvement of cost over base:
// 100·(base−cost)/base, or 0 when base is 0.
func Improvement(base, cost float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - cost) / base
}
