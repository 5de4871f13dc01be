// Package transitions implements the five state transitions of §2.2 —
// Swap (SWA), Factorize (FAC), Distribute (DIS), Merge (MER) and Split
// (SPL) — together with their applicability rules (§3.3). Every transition
// derives a copy-on-write child of the input workflow (workflow.Graph's
// Mutate), rewrites only the local neighborhood of the transition site,
// regenerates the affected schemata and verifies their well-formedness, so
// a successful Result always carries a valid equivalent state while
// structurally sharing everything the rewrite did not touch; an illegal
// application returns a *Rejection error describing which rule fired.
package transitions

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"etlopt/internal/workflow"
)

// Rejection reports that a transition is not applicable to the given state.
// It is an expected outcome during search, distinct from programming or
// graph-corruption errors.
type Rejection struct {
	Transition string
	Reason     string
}

// Error implements error.
func (r *Rejection) Error() string {
	return fmt.Sprintf("%s rejected: %s", r.Transition, r.Reason)
}

// IsRejection reports whether err is (or wraps) a transition rejection.
func IsRejection(err error) bool {
	var r *Rejection
	return errors.As(err, &r)
}

func reject(transition, format string, args ...interface{}) error {
	return &Rejection{Transition: transition, Reason: fmt.Sprintf(format, args...)}
}

// Applied identifies an applied transition structurally: the operation
// mnemonic and the node IDs it was invoked with, in call order. Node IDs
// are deterministic (clones inherit the ID counter), so a recorded
// sequence of Applied values replayed against the same initial workflow
// reproduces the exact derivation — the basis of offline trace auditing.
// Args is a fixed-size array so recording allocates nothing beyond the
// Result itself.
type Applied struct {
	// Op is the transition mnemonic: SWA, FAC, DIS, MER or SPL.
	Op string
	// Args[:NArgs] are the node IDs the transition was invoked with:
	// SWA(a1,a2), FAC(ab,a1,a2), DIS(ab,a), MER(a1,a2), SPL(a).
	Args  [3]workflow.NodeID
	NArgs int
	// Desc is the paper-notation description, e.g. "SWA(5,6)".
	Desc string
}

// ArgIDs returns the call arguments as a freshly allocated slice.
func (a Applied) ArgIDs() []workflow.NodeID {
	return append([]workflow.NodeID(nil), a.Args[:a.NArgs]...)
}

// Result is a successfully derived state.
type Result struct {
	// Graph is the derived workflow, schemata regenerated and checked.
	Graph *workflow.Graph
	// Dirty lists the nodes the rewrite touched; cost evaluation only needs
	// to recompute these and their descendants (§4.1 semi-incremental
	// costing).
	Dirty []workflow.NodeID
	// Description names the transition in the paper's notation, e.g.
	// "SWA(5,6)".
	Description string
	// Applied records the transition structurally for replay and audit.
	Applied Applied
	// SigOld/SigNew describe the rewrite's effect on the state signature
	// (§4.1) as a local segment replacement: the parent signature contains
	// the dot-joined run SigOld exactly where the rewrite happened, and
	// the derived state renders SigNew there instead. Both are empty for
	// transitions that restructure branches (FAC, DIS) rather than a
	// single chain segment; callers then re-render the signature in full.
	// See workflow.SpliceSignature for the soundness conditions.
	SigOld, SigNew string
}

// finish regenerates schemata on the rewritten clone (incrementally from
// the dirty nodes) and verifies well-formedness of every recomputed node,
// converting violations into rejections of the named transition. The
// well-formedness check is what enforces the paper's swap conditions (3)
// and (4) "after the swapping".
func finish(name string, g *workflow.Graph, dirty []workflow.NodeID, applied Applied) (*Result, error) {
	recomputed, err := g.RegenerateSchemataIncremental(dirty)
	if err != nil {
		return nil, reject(name, "schema regeneration failed: %v", err)
	}
	if err := g.CheckWellFormedNodes(recomputed); err != nil {
		return nil, reject(name, "resulting state ill-formed: %v", err)
	}
	if workflow.DebugCOW {
		// `-tags etldebug`: audit the copy-on-write discipline after every
		// rewrite — the derived graph must be internally consistent and the
		// parent it structurally shares with must be untouched.
		if err := g.CheckIntegrity(); err != nil {
			panic(fmt.Sprintf("transitions: %s corrupted the derived graph: %v", name, err))
		}
		g.DebugVerifySharing()
	}
	return &Result{Graph: g, Dirty: dirty, Description: applied.Desc, Applied: applied}, nil
}

func applied1(op string, desc string, a workflow.NodeID) Applied {
	return Applied{Op: op, Args: [3]workflow.NodeID{a}, NArgs: 1, Desc: desc}
}

func applied2(op string, desc string, a, b workflow.NodeID) Applied {
	return Applied{Op: op, Args: [3]workflow.NodeID{a, b}, NArgs: 2, Desc: desc}
}

func applied3(op string, desc string, a, b, c workflow.NodeID) Applied {
	return Applied{Op: op, Args: [3]workflow.NodeID{a, b, c}, NArgs: 3, Desc: desc}
}

// Apply replays a recorded transition against g, dispatching on the
// mnemonic. It is the audit-side inverse of recording: the same
// applicability guards run again, so a corrupted or illegal record is
// rejected exactly as it would have been during search.
func Apply(g *workflow.Graph, a Applied) (*Result, error) {
	argc := map[string]int{"SWA": 2, "FAC": 3, "DIS": 2, "MER": 2, "SPL": 1}[a.Op]
	if argc == 0 {
		return nil, fmt.Errorf("transitions: unknown operation %q", a.Op)
	}
	if a.NArgs != argc {
		return nil, fmt.Errorf("transitions: %s expects %d node arguments, got %d", a.Op, argc, a.NArgs)
	}
	switch a.Op {
	case "SWA":
		return Swap(g, a.Args[0], a.Args[1])
	case "FAC":
		return Factorize(g, a.Args[0], a.Args[1], a.Args[2])
	case "DIS":
		return Distribute(g, a.Args[0], a.Args[1])
	case "MER":
		return Merge(g, a.Args[0], a.Args[1])
	default:
		return Split(g, a.Args[0])
	}
}

func contains(ids []workflow.NodeID, id workflow.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Swap applies SWA(a1,a2): two adjacent unary activities interchange their
// position in the graph (Fig. 3a). Applicability follows §3.3:
//
//  1. a1 and a2 are adjacent (a1 provides a2);
//  2. both have a single input and output schema and their output has
//     exactly one consumer;
//  3. the functionality schema of each is a subset of its input schema both
//     before and after the swap (the Fig. 5 rejection: σ(€) cannot precede
//     $2€) — enforced by re-checking the regenerated state;
//  4. the input schemata remain subsets of their providers' outputs both
//     before and after (the Fig. 6 rejection: a projected-out attribute
//     loses its declared provider) — likewise enforced after regeneration;
//
// plus the template-level semantic constraints the paper delegates to the
// template library (see semanticGuard): value-sensitive activities do not
// cross in-place transformations of attributes they inspect, and
// duplicate-sensitive activities only cross record-injective ones.
func Swap(g *workflow.Graph, a1, a2 workflow.NodeID) (*Result, error) {
	const name = "SWA"
	n1, n2 := g.Node(a1), g.Node(a2)
	if n1 == nil || n2 == nil {
		return nil, fmt.Errorf("transitions: swap of unknown node (%d,%d)", a1, a2)
	}
	if n1.Kind != workflow.KindActivity || n2.Kind != workflow.KindActivity {
		return nil, reject(name, "both nodes must be activities")
	}
	if n1.Act.IsBinary() || n2.Act.IsBinary() {
		return nil, reject(name, "swap concerns only unary activities")
	}
	if !contains(g.Consumers(a1), a2) {
		return nil, reject(name, "activities %d and %d are not adjacent", a1, a2)
	}
	if len(g.Consumers(a1)) != 1 || len(g.Consumers(a2)) != 1 {
		return nil, reject(name, "output schema must have exactly one consumer")
	}
	if len(g.Providers(a1)) != 1 || len(g.Providers(a2)) != 1 {
		return nil, reject(name, "both activities must have a single input")
	}
	if err := semanticGuard(n1.Act, n2.Act); err != nil {
		return nil, err
	}

	c := g.Mutate()
	p := c.Providers(a1)[0]
	consumer := c.Consumers(a2)[0]
	// p→a1→a2→consumer becomes p→a2→a1→consumer. Each rewiring preserves
	// provider positions, so binary consumers keep their input ordering.
	c.MustReplaceProvider(consumer, a2, a1)
	c.MustReplaceProvider(a1, p, a2)
	c.MustReplaceProvider(a2, a1, p)

	desc := fmt.Sprintf("SWA(%s,%s)", n1.Act.Tag, n2.Act.Tag)
	res, err := finish(name, c, []workflow.NodeID{a1, a2}, applied2(name, desc, a1, a2))
	if err != nil {
		return nil, err
	}
	res.SigOld, res.SigNew, _ = SwapSegments(g, a1, a2)
	return res, nil
}

// SwapSegments returns the signature segments of SWA(a1,a2) — the
// Result.SigOld and Result.SigNew a successful Swap reports — without
// deriving the child: they depend on the two tags alone, so a caller can
// splice the successor's signature and drop a duplicate before paying for
// the rewrite. ok is false when either node is not an activity. The
// segments say nothing about legality; only Swap runs the guards.
func SwapSegments(g *workflow.Graph, a1, a2 workflow.NodeID) (oldSeg, newSeg string, ok bool) {
	n1, n2 := g.Node(a1), g.Node(a2)
	if n1 == nil || n2 == nil || n1.Kind != workflow.KindActivity || n2.Kind != workflow.KindActivity {
		return "", "", false
	}
	t1, t2 := n1.Act.Tag, n2.Act.Tag
	return t1 + "." + t2, t2 + "." + t1, true
}

// combineTags merges the signature tags of factorized activities: equal
// tags (DIS clones being re-factorized) collapse to the original tag, so
// the state regains its pre-distribution signature; distinct tags join
// canonically.
func combineTags(t1, t2 string) string {
	if t1 == t2 {
		return t1
	}
	ts := []string{t1, t2}
	sort.Strings(ts)
	return strings.Join(ts, "&")
}

// Factorize applies FAC(ab,a1,a2): two homologous activities a1 and a2
// feeding the binary activity ab are replaced by a single new activity a
// placed right after ab (Fig. 3b, upward). Per §3.3, a1 and a2 must perform
// the same operation in terms of algebraic expression and have ab as their
// common consumer; the full homologous definition (§3.2) additionally
// requires identical functionality, generated and projected-out schemata.
// As a correctness guard, the factorized operation must also be one that
// legally distributes over ab (Factorize and Distribute are reciprocal).
func Factorize(g *workflow.Graph, ab, a1, a2 workflow.NodeID) (*Result, error) {
	const name = "FAC"
	nb, n1, n2 := g.Node(ab), g.Node(a1), g.Node(a2)
	if nb == nil || n1 == nil || n2 == nil {
		return nil, fmt.Errorf("transitions: factorize of unknown node (%d,%d,%d)", ab, a1, a2)
	}
	if nb.Kind != workflow.KindActivity || !nb.Act.IsBinary() {
		return nil, reject(name, "node %d is not a binary activity", ab)
	}
	if a1 == a2 {
		return nil, reject(name, "cannot factorize an activity with itself")
	}
	for _, id := range []workflow.NodeID{a1, a2} {
		n := g.Node(id)
		if n.Kind != workflow.KindActivity || n.Act.IsBinary() {
			return nil, reject(name, "node %d is not a unary activity", id)
		}
		if len(g.Consumers(id)) != 1 || g.Consumers(id)[0] != ab {
			return nil, reject(name, "activity %d is not an immediate provider of %d", id, ab)
		}
		if len(g.Providers(id)) != 1 {
			return nil, reject(name, "activity %d must have a single provider", id)
		}
	}
	preds := g.Providers(ab)
	if len(preds) != 2 || !contains(preds, a1) || !contains(preds, a2) {
		return nil, reject(name, "%d and %d must be the two providers of %d", a1, a2, ab)
	}
	if !n1.Act.Homologous(n2.Act) {
		return nil, reject(name, "activities %d and %d are not homologous", a1, a2)
	}
	if !workflow.CanDistributeOver(n1.Act, nb.Act) {
		return nil, reject(name, "%s does not commute with %s", n1.Act.Sem.Op, nb.Act.Sem.Op)
	}

	c := g.Mutate()
	x1 := c.Providers(a1)[0]
	x2 := c.Providers(a2)[0]
	// Bypass a1 and a2: each edge (x,ai) becomes (x,ab) in ai's position.
	c.MustReplaceProvider(ab, a1, x1)
	c.MustReplaceProvider(ab, a2, x2)
	// Create the factorized activity a after ab.
	merged := n1.Act.Clone()
	merged.Tag = combineTags(n1.Act.Tag, n2.Act.Tag)
	na := c.AddActivity(merged)
	// Every edge (ab,y) becomes (a,y); then ab feeds a.
	for _, y := range append([]workflow.NodeID(nil), c.Consumers(ab)...) {
		c.MustReplaceProvider(y, ab, na)
	}
	c.MustAddEdge(ab, na)
	c.RemoveNode(a1)
	c.RemoveNode(a2)

	desc := fmt.Sprintf("FAC(%s,%s,%s)", nb.Act.Tag, n1.Act.Tag, n2.Act.Tag)
	return finish(name, c, []workflow.NodeID{ab, na}, applied3(name, desc, ab, a1, a2))
}

// Distribute applies DIS(ab,a): the activity a, fed directly by the binary
// activity ab, is removed and clones of it are inserted into each input
// branch of ab (Fig. 3b, downward). The operation must distribute over the
// binary operation (workflow.CanDistributeOver): selections, not-null
// checks, scalar functions, projections and surrogate keys distribute over
// a bag union; over joins, differences and intersections only
// selection-like activities keyed on the binary's key attributes do.
func Distribute(g *workflow.Graph, ab, a workflow.NodeID) (*Result, error) {
	const name = "DIS"
	nb, na := g.Node(ab), g.Node(a)
	if nb == nil || na == nil {
		return nil, fmt.Errorf("transitions: distribute of unknown node (%d,%d)", ab, a)
	}
	if nb.Kind != workflow.KindActivity || !nb.Act.IsBinary() {
		return nil, reject(name, "node %d is not a binary activity", ab)
	}
	if na.Kind != workflow.KindActivity || na.Act.IsBinary() {
		return nil, reject(name, "node %d is not a unary activity", a)
	}
	if len(g.Providers(a)) != 1 || g.Providers(a)[0] != ab {
		return nil, reject(name, "%d must be fed directly by binary %d", a, ab)
	}
	if len(g.Consumers(ab)) != 1 {
		return nil, reject(name, "binary %d must feed only %d", ab, a)
	}
	if len(g.Consumers(a)) != 1 {
		return nil, reject(name, "activity %d must have exactly one consumer", a)
	}
	if !workflow.CanDistributeOver(na.Act, nb.Act) {
		return nil, reject(name, "%s does not distribute over %s", na.Act.Sem.Op, nb.Act.Sem.Op)
	}

	c := g.Mutate()
	consumer := c.Consumers(a)[0]
	// Bypass a: ab feeds a's consumer in a's position.
	c.MustReplaceProvider(consumer, a, ab)
	// Insert one clone per input branch of ab.
	dirty := []workflow.NodeID{ab}
	for _, x := range append([]workflow.NodeID(nil), c.Providers(ab)...) {
		clone := na.Act.Clone() // keeps the tag, so FAC restores the signature
		id := c.AddActivity(clone)
		c.MustReplaceProvider(ab, x, id)
		c.MustAddEdge(x, id)
		dirty = append(dirty, id)
	}
	c.RemoveNode(a)

	desc := fmt.Sprintf("DIS(%s,%s)", nb.Act.Tag, na.Act.Tag)
	return finish(name, c, dirty, applied2(name, desc, ab, a))
}

// flattenComponents returns the activity itself, or its components if it is
// already a merged package, so merges always hold a flat component list.
func flattenComponents(a *workflow.Activity) []*workflow.Activity {
	if a.Sem.Op == workflow.OpMerged {
		return a.Sem.Components
	}
	return []*workflow.Activity{a}
}

// makeMerged assembles the packaged activity for a component list,
// deriving the composite functionality, generated and projected-out
// schemata and the product selectivity. Per §3.3, the package's input
// requirements are the first component's plus whatever later components
// need that earlier ones do not generate.
func makeMerged(comps []*workflow.Activity) *workflow.Activity {
	cloned := make([]*workflow.Activity, len(comps))
	for i, a := range comps {
		cloned[i] = a.Clone()
	}
	fun := cloned[0].Fun.Clone()
	gen := cloned[0].Gen.Clone()
	prj := cloned[0].PrjOut.Clone()
	req := cloned[0].RequiredIn.Clone()
	sel := cloned[0].Sel
	names := []string{cloned[0].Name}
	tags := []string{cloned[0].Tag}
	for _, a := range cloned[1:] {
		fun = fun.Union(a.Fun.Minus(gen))
		req = req.Union(a.RequiredIn.Minus(gen))
		gen = gen.Minus(a.PrjOut).Union(a.Gen)
		prj = prj.Union(a.PrjOut.Minus(gen))
		sel *= a.Sel
		names = append(names, a.Name)
		tags = append(tags, a.Tag)
	}
	return &workflow.Activity{
		Name:       strings.Join(names, "+"),
		Tag:        strings.Join(tags, "+"),
		Sem:        workflow.Semantics{Op: workflow.OpMerged, Components: cloned},
		Fun:        fun,
		Gen:        gen,
		PrjOut:     prj,
		RequiredIn: req,
		Sel:        sel,
	}
}

// Merge applies MER(a1+2,a1,a2): two adjacent unary activities are packaged
// into one (Fig. 3c) without changing their semantics. Merging proactively
// shrinks the search space: the pair can no longer be separated or
// commuted until split. Any adjacent unary pair with single consumers may
// be merged.
func Merge(g *workflow.Graph, a1, a2 workflow.NodeID) (*Result, error) {
	const name = "MER"
	n1, n2 := g.Node(a1), g.Node(a2)
	if n1 == nil || n2 == nil {
		return nil, fmt.Errorf("transitions: merge of unknown node (%d,%d)", a1, a2)
	}
	if n1.Kind != workflow.KindActivity || n2.Kind != workflow.KindActivity ||
		n1.Act.IsBinary() || n2.Act.IsBinary() {
		return nil, reject(name, "merge concerns adjacent unary activities")
	}
	if !contains(g.Consumers(a1), a2) {
		return nil, reject(name, "activities %d and %d are not adjacent", a1, a2)
	}
	if len(g.Consumers(a1)) != 1 || len(g.Consumers(a2)) != 1 {
		return nil, reject(name, "both activities must have exactly one consumer")
	}

	c := g.Mutate()
	p := c.Providers(a1)[0]
	consumer := c.Consumers(a2)[0]
	comps := append(flattenComponents(c.Node(a1).Act), flattenComponents(c.Node(a2).Act)...)
	m := makeMerged(comps)
	id := c.AddActivity(m)
	c.MustAddEdge(p, id)
	c.MustReplaceProvider(consumer, a2, id)
	c.RemoveNode(a1)
	c.RemoveNode(a2)

	desc := fmt.Sprintf("MER(%s,%s,%s)", m.Tag, n1.Act.Tag, n2.Act.Tag)
	res, err := finish(name, c, []workflow.NodeID{id}, applied2(name, desc, a1, a2))
	if err != nil {
		return nil, err
	}
	res.SigOld = n1.Act.Tag + "." + n2.Act.Tag
	res.SigNew = m.Tag
	return res, nil
}

// Split applies SPL(a1+2,a1,a2): a previously merged package is split into
// its first component and the package of the rest (a+b+c → a and b+c, per
// §3.3). Splitting a two-component package restores two plain activities.
func Split(g *workflow.Graph, id workflow.NodeID) (*Result, error) {
	const name = "SPL"
	n := g.Node(id)
	if n == nil {
		return nil, fmt.Errorf("transitions: split of unknown node %d", id)
	}
	if n.Kind != workflow.KindActivity || n.Act.Sem.Op != workflow.OpMerged {
		return nil, reject(name, "node %d is not a merged activity", id)
	}
	comps := n.Act.Sem.Components
	if len(comps) < 2 {
		return nil, reject(name, "merged activity %d has fewer than two components", id)
	}

	c := g.Mutate()
	p := c.Providers(id)[0]
	consumer := c.Consumers(id)[0]
	first := comps[0].Clone()
	var second *workflow.Activity
	if len(comps) == 2 {
		second = comps[1].Clone()
	} else {
		second = makeMerged(comps[1:])
	}
	id1 := c.AddActivity(first)
	id2 := c.AddActivity(second)
	c.MustAddEdge(p, id1)
	c.MustAddEdge(id1, id2)
	c.MustReplaceProvider(consumer, id, id2)
	c.RemoveNode(id)

	desc := fmt.Sprintf("SPL(%s,%s,%s)", n.Act.Tag, first.Tag, second.Tag)
	res, err := finish(name, c, []workflow.NodeID{id1, id2}, applied1(name, desc, id))
	if err != nil {
		return nil, err
	}
	res.SigOld = n.Act.Tag
	res.SigNew = first.Tag + "." + second.Tag
	return res, nil
}

// SplitAll repeatedly splits every merged activity until none remain —
// the post-processing step of the heuristic search ("when the application
// of the transitions has finished, we can ungroup any grouped
// activities").
func SplitAll(g *workflow.Graph) (*workflow.Graph, error) {
	cur := g
	for {
		var mergedID workflow.NodeID = -1
		for _, id := range cur.Activities() {
			if cur.Node(id).Act.Sem.Op == workflow.OpMerged {
				mergedID = id
				break
			}
		}
		if mergedID < 0 {
			return cur, nil
		}
		res, err := Split(cur, mergedID)
		if err != nil {
			return nil, err
		}
		cur = res.Graph
	}
}
