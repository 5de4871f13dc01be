package proptest_test

import (
	"fmt"
	"slices"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/generator"
	"etlopt/internal/proptest"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// staleChild returns a Clone of the successor with the schemata it held
// before regeneration: its parent's on every node the parent has, none on
// the nodes the rewrite created.
func staleChild(parent, child *workflow.Graph) *workflow.Graph {
	c := child.Clone()
	for _, id := range c.Nodes() {
		n := c.Node(id)
		n.In, n.Out = nil, nil
		if p := parent.Node(id); p != nil {
			n.In, n.Out = p.In, p.Out
		}
	}
	return c
}

// regenerateModel is the whole-graph incremental regeneration the cone
// walk replaced: every node in topological order, re-derived when it is
// dirty or an input schema no longer matches its provider's output. It
// returns the re-derived nodes.
func regenerateModel(g *workflow.Graph, dirty []workflow.NodeID) ([]workflow.NodeID, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	var out []workflow.NodeID
	for _, id := range order {
		n, preds := g.Node(id), g.Providers(id)
		need := slices.Contains(dirty, id) || len(n.In) != len(preds)
		for i := 0; !need && i < len(preds); i++ {
			need = !n.In[i].Equal(g.Node(preds[i]).Out)
		}
		if !need {
			continue
		}
		n.In = make([]data.Schema, len(preds))
		for i, p := range preds {
			n.In[i] = g.Node(p).Out
		}
		if n.Kind == workflow.KindRecordset {
			n.Out = n.RS.Schema.Clone()
		} else if n.Out, err = workflow.DeriveOutput(n.Act, n.In); err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	return out, nil
}

// sameSchemata reports the first node whose In or Out differs between g
// and want.
func sameSchemata(g, want *workflow.Graph) error {
	for _, id := range want.Nodes() {
		got, w := g.Node(id), want.Node(id)
		same := got.Out.Equal(w.Out) && len(got.In) == len(w.In)
		for i := 0; same && i < len(got.In); i++ {
			same = got.In[i].Equal(w.In[i])
		}
		if !same {
			return fmt.Errorf("node %d holds In %v Out %v, full regeneration derives In %v Out %v", id, got.In, got.Out, w.In, w.Out)
		}
	}
	return nil
}

// checkCone checks one successor: the rewrite's dirty set meets the
// regeneration precondition, every node of the successor holds what a full
// RegenerateSchemata of a Clone derives, and the cone walk re-derives, from
// the pre-regeneration schemata, the same nodes as the whole-graph model.
func checkCone(parent *workflow.Graph, res *transitions.Result) error {
	g := res.Graph
	for _, id := range g.Nodes() {
		if parent.Node(id) != nil && slices.Equal(g.Providers(id), parent.Providers(id)) {
			continue
		}
		covered := slices.Contains(res.Dirty, id)
		for _, p := range g.Providers(id) {
			covered = covered || slices.Contains(res.Dirty, p)
		}
		if !covered {
			return fmt.Errorf("node %d changed its providers but is neither dirty %v nor a consumer of a dirty node", id, res.Dirty)
		}
	}
	full := g.Clone()
	if err := full.RegenerateSchemata(); err != nil {
		return err
	}
	if err := sameSchemata(g, full); err != nil {
		return err
	}
	cone := staleChild(parent, g)
	got, err := cone.RegenerateSchemataIncremental(res.Dirty)
	if err != nil {
		return err
	}
	want, err := regenerateModel(staleChild(parent, g), res.Dirty)
	if err != nil {
		return err
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("cone walk re-derives %v, the whole-graph model %v", got, want)
	}
	return sameSchemata(cone, full)
}

// TestRegenerateConeMatchesFull holds the cone walk of
// RegenerateSchemataIncremental to whole-graph regeneration on the
// SWA/FAC/DIS/MER successors of the proptest corpus and the SPL of every
// merged package.
func TestRegenerateConeMatchesFull(t *testing.T) {
	counts := []struct {
		cat generator.Category
		n   int
	}{{generator.Small, 60}, {generator.Medium, 20}, {generator.Large, 10}}
	ops := map[string]int{}
	for _, c := range counts {
		for i, sc := range suiteFor(t, c.cat, c.n, propSeed+int64(c.cat)*104729) {
			for _, res := range proptest.Successors(sc.Graph) {
				ops[res.Applied.Op]++
				if err := checkCone(sc.Graph, res); err != nil {
					t.Fatalf("%s-%02d %s: %v", c.cat, i+1, res.Description(), err)
				}
				if res.Applied.Op != "MER" {
					continue
				}
				sres, err := transitions.Split(res.Graph, res.Dirty[0])
				if err != nil {
					t.Fatalf("%s-%02d %s: %v", c.cat, i+1, res.Description(), err)
				}
				ops["SPL"]++
				if err := checkCone(res.Graph, sres); err != nil {
					t.Fatalf("%s-%02d %s then %s: %v", c.cat, i+1, res.Description(), sres.Description(), err)
				}
			}
		}
	}
	for _, op := range []string{"SWA", "FAC", "DIS", "MER", "SPL"} {
		if ops[op] == 0 {
			t.Errorf("the corpus exercised no %s", op)
		}
	}
	t.Logf("successors checked per transition: %v", ops)
}
