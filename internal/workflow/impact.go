package workflow

import (
	"fmt"
	"slices"
	"sort"
)

// The paper's conclusions (§6) name "the impact analysis of changes and
// failures in the workflow environment" as an open problem. This file
// provides the graph-level half of that analysis: given a changed or
// failed node, which activities and recordsets are affected, and which
// source data is at risk of being lost or double-processed on restart.

// Impact describes the consequences of a change or failure at one node.
type Impact struct {
	// Node is the changed/failed node.
	Node NodeID
	// Downstream lists every node whose input is (transitively) derived
	// from the node — the activities that must re-run and the targets
	// whose contents are stale after a change.
	Downstream []NodeID
	// Targets lists the affected target recordsets by name.
	Targets []string
	// Upstream lists every node the failed node (transitively) depends
	// on — the sources and activities that must be re-read or re-executed
	// to recover the node's input.
	Upstream []NodeID
	// Sources lists the source recordsets feeding the node, by name.
	Sources []string
}

// AnalyzeImpact computes the impact of a change or failure at the given
// node.
func (g *Graph) AnalyzeImpact(id NodeID) (*Impact, error) {
	if g.Node(id) == nil {
		return nil, fmt.Errorf("workflow: impact analysis of unknown node %d", id)
	}
	imp := &Impact{Node: id}
	down := g.reach(id, g.Consumers)
	up := g.reach(id, g.Providers)
	for _, n := range down {
		imp.Downstream = append(imp.Downstream, n)
		node := g.Node(n)
		if node.Kind == KindRecordset && len(g.Consumers(n)) == 0 {
			imp.Targets = append(imp.Targets, node.RS.Name)
		}
	}
	for _, n := range up {
		imp.Upstream = append(imp.Upstream, n)
		node := g.Node(n)
		if node.Kind == KindRecordset && len(g.Providers(n)) == 0 {
			imp.Sources = append(imp.Sources, node.RS.Name)
		}
	}
	sort.Strings(imp.Targets)
	sort.Strings(imp.Sources)
	return imp, nil
}

// reach returns the nodes reachable from id through the step function
// (excluding id itself), in ascending ID order.
func (g *Graph) reach(id NodeID, step func(NodeID) []NodeID) []NodeID {
	seen := map[NodeID]bool{id: true}
	var out []NodeID
	frontier := []NodeID{id}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, next := range step(cur) {
			if !seen[next] {
				seen[next] = true
				out = append(out, next)
				frontier = append(frontier, next)
			}
		}
	}
	slices.Sort(out)
	return out
}

// UnaffectedBy returns the activities that need not re-run after a change
// at the given node — the complement of the impact's downstream set over
// the activities, which a scheduler can keep warm across a partial
// restart.
func (g *Graph) UnaffectedBy(id NodeID) ([]NodeID, error) {
	imp, err := g.AnalyzeImpact(id)
	if err != nil {
		return nil, err
	}
	affected := make(map[NodeID]bool, len(imp.Downstream)+1)
	affected[id] = true
	for _, n := range imp.Downstream {
		affected[n] = true
	}
	var out []NodeID
	for _, a := range g.Activities() {
		if !affected[a] {
			out = append(out, a)
		}
	}
	return out, nil
}
