package transitions

import (
	"fmt"

	"etlopt/internal/workflow"
)

// ShiftResult records a sequence of swaps that moved an activity through
// its local group.
type ShiftResult struct {
	// Graph is the final state with the activity in place.
	Graph *workflow.Graph
	// Swaps counts the SWA transitions applied (each is a generated state).
	Swaps int
	// Applied records each applied swap structurally, in order.
	Applied []Applied
}

// ShiftForward implements the HS algorithm's ShiftFrw(a, ab) test (§4.2,
// Phase II): it attempts to move unary activity a forward (towards the
// sinks) through consecutive swaps until it becomes an immediate provider
// of the binary activity ab. It returns the resulting state and the number
// of swap-generated intermediate states, or a rejection if some swap on the
// way is illegal.
func ShiftForward(g *workflow.Graph, a, ab workflow.NodeID) (*ShiftResult, error) {
	cur := g
	res := &ShiftResult{Graph: g}
	for steps := 0; ; steps++ {
		if steps > cur.Len() {
			return nil, fmt.Errorf("transitions: shift-forward of %d did not terminate", a)
		}
		succs := cur.Consumers(a)
		if len(succs) != 1 {
			return nil, reject("SWA", "activity %d has %d consumers during shift", a, len(succs))
		}
		next := succs[0]
		if next == ab {
			res.Graph = cur
			return res, nil
		}
		nn := cur.Node(next)
		if nn.Kind != workflow.KindActivity || nn.Act.IsBinary() {
			return nil, reject("SWA", "activity %d blocked by non-swappable node %d on the way to %d", a, next, ab)
		}
		r, err := Swap(cur, a, next)
		if err != nil {
			return nil, err
		}
		cur = r.Graph
		res.Swaps++
		res.Applied = append(res.Applied, r.Applied)
		res.Graph = cur
	}
}

// ShiftBackward implements ShiftBkw(a, ab) (§4.2, Phase III): it attempts
// to move unary activity a backward (towards the sources) through
// consecutive swaps until it is fed directly by the binary activity ab.
func ShiftBackward(g *workflow.Graph, a, ab workflow.NodeID) (*ShiftResult, error) {
	cur := g
	res := &ShiftResult{Graph: g}
	for steps := 0; ; steps++ {
		if steps > cur.Len() {
			return nil, fmt.Errorf("transitions: shift-backward of %d did not terminate", a)
		}
		preds := cur.Providers(a)
		if len(preds) != 1 {
			return nil, reject("SWA", "activity %d has %d providers during shift", a, len(preds))
		}
		prev := preds[0]
		if prev == ab {
			res.Graph = cur
			return res, nil
		}
		pn := cur.Node(prev)
		if pn.Kind != workflow.KindActivity || pn.Act.IsBinary() {
			return nil, reject("SWA", "activity %d blocked by non-swappable node %d on the way to %d", a, prev, ab)
		}
		r, err := Swap(cur, prev, a)
		if err != nil {
			return nil, err
		}
		cur = r.Graph
		res.Swaps++
		res.Applied = append(res.Applied, r.Applied)
		res.Graph = cur
	}
}
