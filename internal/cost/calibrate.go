package cost

import (
	"fmt"
	"math"
	"strings"

	"etlopt/internal/workflow"
)

// The optimizer is only as good as its selectivity estimates (§2.2 assigns
// them per activity). This file closes the loop with execution: compare a
// state's estimated cardinalities against the row counts an actual run
// observed, and calibrate the activities' selectivities from those
// observations so a re-optimization works with measured reality.

// Estimate compares per-node estimated and observed cardinalities.
type Estimate struct {
	Node      workflow.NodeID
	Label     string
	Estimated float64
	Actual    int
}

// Explain evaluates the workflow under the model and pairs each node's
// estimated output cardinality with the observed row count of an executed
// run (engine.RunResult.NodeRows). Nodes are returned in topological
// order.
func Explain(g *workflow.Graph, m Model, nodeRows map[workflow.NodeID]int) ([]Estimate, error) {
	c, err := Evaluate(g, m)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	out := make([]Estimate, 0, len(order))
	for _, id := range order {
		out = append(out, Estimate{
			Node:      id,
			Label:     g.Node(id).Label(),
			Estimated: c.Card(id),
			Actual:    nodeRows[id],
		})
	}
	return out, nil
}

// FormatExplain renders an Explain result as an aligned table with a
// relative-error column.
func FormatExplain(estimates []Estimate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-35s %12s %12s %8s\n", "node", "label", "estimated", "actual", "err")
	for _, e := range estimates {
		errStr := "-"
		if e.Actual > 0 {
			errStr = fmt.Sprintf("%+.0f%%", 100*(e.Estimated-float64(e.Actual))/float64(e.Actual))
		}
		fmt.Fprintf(&b, "%4d  %-35s %12.0f %12d %8s\n", e.Node, e.Label, e.Estimated, e.Actual, errStr)
	}
	return b.String()
}

// Calibrate returns a copy of the workflow whose activity selectivities —
// and source cardinality hints — are set from the observed row counts of
// an executed run: each activity SelectivityDeltas has evidence for takes
// its observed selectivity, the others keep their declared estimate.
// Re-optimizing the calibrated workflow searches with measured reality
// instead of design-time guesses.
func Calibrate(g *workflow.Graph, nodeRows map[workflow.NodeID]int) (*workflow.Graph, error) {
	c := g.Clone()
	for _, id := range c.Nodes() {
		if n := c.Node(id); n.Kind == workflow.KindRecordset && len(c.Providers(id)) == 0 {
			if rows, ok := nodeRows[id]; ok && rows > 0 {
				ref := n.RS.Clone()
				ref.Rows = float64(rows)
				n.RS = ref
			}
		}
	}
	for _, d := range SelectivityDeltas(c, nodeRows) {
		n := c.Node(d.Node)
		sel := d.Observed
		if sel <= 0 {
			// A fully-filtering activity: keep a tiny positive estimate so
			// cost formulas stay well-behaved.
			sel = 1e-6
		}
		if sel > 1 && !n.Act.IsBinary() {
			return nil, fmt.Errorf("cost: activity %d (%s) observed selectivity %g > 1; row counts inconsistent",
				d.Node, d.Label, sel)
		}
		calibrated := n.Act.Clone()
		calibrated.Sel = sel
		n.Act = calibrated
	}
	return c, nil
}

// SelDelta pairs one activity's modeled (design-time) selectivity with the
// selectivity actually observed in an executed run — the per-activity
// drift of the cost model's central parameter.
type SelDelta struct {
	Node     workflow.NodeID
	Label    string
	Modeled  float64
	Observed float64
}

// Delta returns observed − modeled (positive: the activity passed more
// rows than the model assumed).
func (d SelDelta) Delta() float64 { return d.Observed - d.Modeled }

// SelectivityDeltas computes, for every activity with evidence, the
// observed selectivity of an executed run (engine.RunResult.NodeRows)
// against the activity's declared estimate: out/in for unaries,
// out/(in₁·in₂) for joins, out/in₁ for differences and intersections.
// Unions (no selectivity) and activities whose output is unrecorded or
// whose inputs were empty or unrecorded are skipped. Results are in
// topological order. This is the one statement of the formula: Calibrate
// and the engine's drift events both read it.
func SelectivityDeltas(g *workflow.Graph, nodeRows map[workflow.NodeID]int) []SelDelta {
	order, err := g.TopoSort()
	if err != nil {
		return nil
	}
	var out []SelDelta
	for _, id := range order {
		n := g.Node(id)
		if n.Kind != workflow.KindActivity || n.Act.Sem.Op == workflow.OpUnion {
			continue
		}
		rows, ok := nodeRows[id]
		if !ok {
			continue
		}
		preds := g.Providers(id)
		denom := 1.0
		evidence := len(preds) > 0
		for i, p := range preds {
			r, ok := nodeRows[p]
			if !ok || r == 0 {
				evidence = false
				break
			}
			if i == 0 || n.Act.Sem.Op == workflow.OpJoin {
				denom *= float64(r)
			}
		}
		if !evidence {
			continue
		}
		observed := float64(rows) / denom
		out = append(out, SelDelta{Node: id, Label: n.Label(), Modeled: n.Act.Sel, Observed: observed})
	}
	return out
}

// MeanAbsSelDelta reduces a delta set to one drift number: the mean
// absolute difference between observed and modeled selectivity. Zero when
// no activity had evidence.
func MeanAbsSelDelta(ds []SelDelta) float64 {
	if len(ds) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range ds {
		sum += math.Abs(d.Delta())
	}
	return sum / float64(len(ds))
}
