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
			if n := g.nodes[id]; n != nil && len(n.succ) == 0 {
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
		preds := g.nodes[cur].pred
		switch len(preds) {
		case 0:
			return joinReversed(labels)
		case 1:
			p := preds[0]
			if len(g.nodes[p].succ) != 1 {
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
	var groups []LocalGroup
	for id := NodeID(1); int(id) < len(g.nodes); id++ {
		if g.unary(id) && g.chainPred(id) == 0 {
			groups = append(groups, g.chainFrom(id))
		}
	}
	return groups
}

// GroupOf returns the local group containing the given activity, or nil.
// It walks the activity's own chain, so it costs the group's length.
func (g *Graph) GroupOf(id NodeID) LocalGroup {
	return g.chainFrom(g.groupStart(id))
}

// Tags returns the tags of grp's activities, in grp's order: the anchors
// LocateSplice takes to place a segment of that group.
func (g *Graph) Tags(grp LocalGroup) []string {
	tags := make([]string, len(grp))
	for i, id := range grp {
		tags[i] = g.nodes[id].Act.Tag
	}
	return tags
}

// unary reports whether id names a live unary activity.
func (g *Graph) unary(id NodeID) bool {
	n := g.Node(id)
	return n != nil && n.Kind == KindActivity && !n.Act.IsBinary()
}

// chainPred and chainSucc step along a local group: the edge p→c links two
// unary activities into one group when it is p's only output and c's only
// input. They return 0 at the group's start and end.
func (g *Graph) chainPred(id NodeID) NodeID {
	if p := g.nodes[id].pred; len(p) == 1 && len(g.nodes[p[0]].succ) == 1 && g.unary(p[0]) {
		return p[0]
	}
	return 0
}

func (g *Graph) chainSucc(id NodeID) NodeID {
	if s := g.nodes[id].succ; len(s) == 1 && len(g.nodes[s[0]].pred) == 1 && g.unary(s[0]) {
		return s[0]
	}
	return 0
}

// groupStart returns the first activity of id's local group, or 0 when id
// is in none (it is not a unary activity).
func (g *Graph) groupStart(id NodeID) NodeID {
	if !g.unary(id) {
		return 0
	}
	for p := g.chainPred(id); p != 0; p = g.chainPred(p) {
		id = p
	}
	return id
}

// chainFrom collects the local group that starts at start (nil for 0).
func (g *Graph) chainFrom(start NodeID) LocalGroup {
	var grp LocalGroup
	for a := start; a != 0; a = g.chainSucc(a) {
		grp = append(grp, a)
	}
	return grp
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
	for id, n := range g.nodes {
		if n == nil || n.Kind != KindActivity || !n.Act.IsBinary() || len(n.pred) != 2 {
			continue
		}
		for a := g.groupStart(n.pred[0]); a != 0; a = g.chainSucc(a) {
			for b := g.groupStart(n.pred[1]); b != 0; b = g.chainSucc(b) {
				if g.nodes[a].Act.Homologous(g.nodes[b].Act) {
					pairs = append(pairs, HomologousPair{A: a, B: b, Binary: NodeID(id)})
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
	for id, n := range g.nodes {
		if n == nil || n.Kind != KindActivity || !n.Act.IsBinary() || len(n.succ) != 1 {
			continue
		}
		for a := g.groupStart(n.succ[0]); a != 0; a = g.chainSucc(a) {
			if CanDistributeOver(g.nodes[a].Act, n.Act) {
				out = append(out, DistributableActivity{Activity: a, Binary: NodeID(id)})
			}
		}
	}
	return out
}

// CanDistributeOver reports whether cloning unary activity a into the input
// branches of binary activity b preserves workflow semantics. Over a bag
// union, which compares no values, every row-local activity distributes.
// Over a join, difference or intersection only a row-local selective one
// does, and only when its functionality schema is contained in the binary's
// key attributes (both branches then filter consistently). Binaries and
// packages are not row-local, so neither distributes.
func CanDistributeOver(a *Activity, b *Activity) bool {
	ca, cb := a.Class(), b.Class()
	switch {
	case ca&RowLocal == 0 || cb&Binary == 0:
		return false
	case cb&ValueSensitive == 0:
		return true
	default:
		return ca&Selective != 0 && data.Schema(b.Sem.Attrs).HasAll(a.Fun)
	}
}
