package cost

import (
	"fmt"
	"math"
	"sort"
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
// an executed run. Unary activities take actual-out / actual-in; joins
// take actual-out / (actual-in₁ × actual-in₂); differences and
// intersections actual-out / actual-in₁. Activities whose input was empty
// keep their declared estimate (no evidence). Re-optimizing the calibrated
// workflow searches with measured reality instead of design-time guesses.
func Calibrate(g *workflow.Graph, nodeRows map[workflow.NodeID]int) (*workflow.Graph, error) {
	c := g.Clone()
	for _, id := range c.Nodes() {
		n := c.Node(id)
		if n.Kind == workflow.KindRecordset {
			if len(c.Providers(id)) == 0 {
				if rows, ok := nodeRows[id]; ok && rows > 0 {
					ref := n.RS.Clone()
					ref.Rows = float64(rows)
					n.RS = ref
				}
			}
			continue
		}
		out, ok := nodeRows[id]
		if !ok {
			continue
		}
		preds := c.Providers(id)
		in := make([]float64, len(preds))
		evidence := true
		for i, p := range preds {
			rows, ok := nodeRows[p]
			if !ok || rows == 0 {
				evidence = false
				break
			}
			in[i] = float64(rows)
		}
		if !evidence {
			continue
		}
		var sel float64
		switch n.Act.Sem.Op {
		case workflow.OpUnion:
			continue // no selectivity
		case workflow.OpJoin:
			sel = float64(out) / (in[0] * in[1])
		case workflow.OpDiff, workflow.OpIntersect:
			sel = float64(out) / in[0]
		default:
			sel = float64(out) / in[0]
		}
		if sel <= 0 {
			// A fully-filtering activity: keep a tiny positive estimate so
			// cost formulas stay well-behaved.
			sel = 1e-6
		}
		if sel > 1 && !n.Act.IsBinary() {
			return nil, fmt.Errorf("cost: activity %d (%s) observed selectivity %g > 1; row counts inconsistent",
				id, n.Label(), sel)
		}
		calibrated := n.Act.Clone()
		calibrated.Sel = sel
		n.Act = calibrated
	}
	return c, nil
}

// WorstEstimates returns the k nodes with the largest relative cardinality
// estimation error — where the design-time selectivities mislead the
// optimizer the most.
func WorstEstimates(estimates []Estimate, k int) []Estimate {
	scored := make([]Estimate, 0, len(estimates))
	for _, e := range estimates {
		if e.Actual > 0 {
			scored = append(scored, e)
		}
	}
	relErr := func(e Estimate) float64 {
		d := e.Estimated - float64(e.Actual)
		if d < 0 {
			d = -d
		}
		return d / float64(e.Actual)
	}
	sort.SliceStable(scored, func(i, j int) bool { return relErr(scored[i]) > relErr(scored[j]) })
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored
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
// against the activity's declared estimate, using the same formulas as
// Calibrate: out/in for unaries, out/(in₁·in₂) for joins, out/in₁ for
// differences and intersections. Unions (no selectivity) and activities
// whose inputs were empty or unrecorded are skipped. Results are in
// topological order.
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
		in := make([]float64, len(preds))
		evidence := len(preds) > 0
		for i, p := range preds {
			r, ok := nodeRows[p]
			if !ok || r == 0 {
				evidence = false
				break
			}
			in[i] = float64(r)
		}
		if !evidence {
			continue
		}
		var observed float64
		switch {
		case n.Act.Sem.Op == workflow.OpJoin && len(in) > 1:
			observed = float64(rows) / (in[0] * in[1])
		default:
			observed = float64(rows) / in[0]
		}
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
