package workflow

import (
	"fmt"
	"sort"
	"strings"

	"etlopt/internal/data"
)

// Signature returns the state's identifying string (§4.1). Linear sequences
// render as dot-separated node tags, parallel converging flows as
// slash-slash groups in parentheses — the workflow of Fig. 1 renders as
// ((1.3)//(2.4.5.6)).7.8.9. Activities render their Tag (stable across
// transitions: DIS clones inherit their origin's tag, FAC and MER combine
// tags) and recordsets their node ID, so equivalent states reached along
// different transition paths share a signature and are generated — and
// costed — only once.
func (g *Graph) Signature() string {
	targets := g.Targets()
	if len(targets) == 0 {
		// Degenerate graphs (mid-construction): fall back to sinks of any
		// kind so the signature is still total.
		for id := 1; id < len(g.nodes); id++ {
			if g.nodes[id] != nil && len(g.succ[id]) == 0 {
				targets = append(targets, NodeID(id))
			}
		}
	}
	parts := make([]string, 0, len(targets))
	for _, t := range targets {
		parts = append(parts, g.chainString(t))
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// chainString renders the maximal linear chain ending at node id, recursing
// into parenthesized parallel groups at convergence points.
func (g *Graph) chainString(id NodeID) string {
	var labels []string
	cur := id
	for {
		labels = append(labels, g.nodeTag(cur))
		preds := g.pred[cur]
		switch len(preds) {
		case 0:
			return joinReversed(labels)
		case 1:
			p := preds[0]
			if len(g.succ[p]) != 1 {
				// Shared provider: its subtree is rendered inside this
				// chain too (duplicated per consumer), which keeps the
				// signature total and deterministic.
				labels = append(labels, g.chainString(p))
				return joinReversed(labels)
			}
			cur = p
		default:
			branches := make([]string, 0, len(preds))
			for _, p := range preds {
				branches = append(branches, "("+g.chainString(p)+")")
			}
			sort.Strings(branches)
			labels = append(labels, "("+strings.Join(branches, "//")+")")
			return joinReversed(labels)
		}
	}
}

func joinReversed(labels []string) string {
	var b strings.Builder
	for i := len(labels) - 1; i >= 0; i-- {
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		b.WriteString(labels[i])
	}
	return b.String()
}

// nodeTag returns the signature token for a node: the activity Tag or the
// recordset node ID.
func (g *Graph) nodeTag(id NodeID) string {
	n := g.nodes[id]
	if n.Kind == KindActivity {
		return n.Act.Tag
	}
	return fmt.Sprintf("%d", n.ID)
}

// LocalGroup is a maximal linear path of unary activities (§3.2),
// delimited by binary activities and recordsets. The HS algorithm's
// divide-and-conquer heuristic (Heuristic 4) optimizes local groups
// independently.
type LocalGroup []NodeID

// LocalGroups returns the local groups of the workflow, each ordered from
// provider to consumer, sorted by their first node ID. The Fig. 1 workflow
// yields {3}, {4,5,6} and {8}.
func (g *Graph) LocalGroups() []LocalGroup {
	inGroup := make(map[NodeID]bool)
	var groups []LocalGroup
	order, err := g.TopoSort()
	if err != nil {
		order = g.Nodes()
	}
	for _, id := range order {
		n := g.nodes[id]
		if n.Kind != KindActivity || n.Act.IsBinary() || inGroup[id] {
			continue
		}
		// id is an unvisited unary activity; find the start of its chain.
		start := id
		for {
			preds := g.pred[start]
			if len(preds) != 1 {
				break
			}
			p := preds[0]
			pn := g.nodes[p]
			if pn.Kind != KindActivity || pn.Act.IsBinary() || len(g.succ[p]) != 1 {
				break
			}
			start = p
		}
		// Walk the chain forward.
		var grp LocalGroup
		cur := start
		for {
			grp = append(grp, cur)
			inGroup[cur] = true
			succs := g.succ[cur]
			if len(succs) != 1 {
				break
			}
			s := succs[0]
			sn := g.nodes[s]
			if sn.Kind != KindActivity || sn.Act.IsBinary() || len(g.pred[s]) != 1 {
				break
			}
			cur = s
		}
		groups = append(groups, grp)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

// GroupOf returns the local group containing the given activity, or nil.
func (g *Graph) GroupOf(id NodeID) LocalGroup {
	if n := g.Node(id); n == nil || n.Kind != KindActivity || n.Act.IsBinary() {
		return nil // in no group: spare the callers that ask per binary activity the grouping
	}
	for _, grp := range g.LocalGroups() {
		for _, m := range grp {
			if m == id {
				return grp
			}
		}
	}
	return nil
}

// HomologousPair names two activities that satisfy the full homologous
// definition of §3.2: identical semantics and auxiliary schemata, found in
// local groups converging on the same binary activity.
type HomologousPair struct {
	A, B   NodeID // the homologous activities (A in the binary's first branch)
	Binary NodeID // the binary activity their local groups converge on
}

// FindHomologousPairs detects homologous activities (§3.2): for every
// binary activity, it pairs activities from the local groups feeding its
// two inputs whose semantics and functionality/generated/projected-out
// schemata coincide. These are the factorization candidates of HS Phase II
// (Heuristic 1).
func (g *Graph) FindHomologousPairs() []HomologousPair {
	var pairs []HomologousPair
	for idx := 1; idx < len(g.nodes); idx++ {
		id := NodeID(idx)
		n := g.nodes[id]
		if n == nil || n.Kind != KindActivity || !n.Act.IsBinary() {
			continue
		}
		preds := g.pred[id]
		if len(preds) != 2 {
			continue
		}
		left, right := g.GroupOf(preds[0]), g.GroupOf(preds[1]) // nil unless a unary activity
		for _, a := range left {
			for _, b := range right {
				if g.nodes[a].Act.Homologous(g.nodes[b].Act) {
					pairs = append(pairs, HomologousPair{A: a, B: b, Binary: id})
				}
			}
		}
	}
	return pairs
}

// DistributableActivity names an activity that could be cloned into the
// input branches of the binary activity that (directly or through its
// local group) provides it.
type DistributableActivity struct {
	Activity NodeID
	Binary   NodeID
}

// FindDistributableActivities detects activities eligible for the DIS
// transition (Heuristic 2): unary activities in the local group that starts
// right after a binary activity, whose operation distributes over that
// binary operation (see CanDistributeOver).
func (g *Graph) FindDistributableActivities() []DistributableActivity {
	var out []DistributableActivity
	for idx := 1; idx < len(g.nodes); idx++ {
		id := NodeID(idx)
		n := g.nodes[id]
		if n == nil || n.Kind != KindActivity || !n.Act.IsBinary() {
			continue
		}
		succs := g.succ[id]
		if len(succs) != 1 {
			continue
		}
		for _, a := range g.GroupOf(succs[0]) {
			if CanDistributeOver(g.nodes[a].Act, n.Act) {
				out = append(out, DistributableActivity{Activity: a, Binary: id})
			}
		}
	}
	return out
}

// CanDistributeOver reports whether cloning unary activity a into the input
// branches of binary activity b preserves workflow semantics:
//
//   - over a bag union, selections, not-null checks, scalar functions and
//     projections distribute freely; duplicate-sensitive operations
//     (primary-key checks, distinct, aggregations, surrogate keys whose
//     lookup caching is shared) do not;
//   - over joins, differences and intersections, only selection-like
//     activities whose functionality schema is contained in the binary's
//     key attributes distribute (both branches then filter consistently).
func CanDistributeOver(a *Activity, b *Activity) bool {
	if a.IsBinary() {
		return false
	}
	switch b.Sem.Op {
	case OpUnion:
		switch a.Sem.Op {
		case OpFilter, OpNotNull, OpFunc, OpProject, OpSurrogateKey:
			return true
		case OpPKCheck:
			// Lookup-based checks are per-row and distribute; group-based
			// checks are duplicate-sensitive across the merged flow and do
			// not.
			return a.Sem.Lookup != ""
		default:
			return false
		}
	case OpJoin, OpDiff, OpIntersect:
		switch a.Sem.Op {
		case OpFilter, OpNotNull:
			return data.Schema(b.Sem.Attrs).HasAll(a.Fun)
		case OpPKCheck:
			return a.Sem.Lookup != "" && data.Schema(b.Sem.Attrs).HasAll(a.Fun)
		default:
			return false
		}
	default:
		return false
	}
}
