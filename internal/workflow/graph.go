package workflow

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"etlopt/internal/data"
)

// NodeID identifies a node within a Graph. IDs equal the execution priority
// assigned by the topological ordering of the workflow in its *initial*
// form (§4.1) for initial nodes; nodes created later by transitions receive
// fresh IDs from the graph's counter. IDs are never reused, so ascending ID
// order equals insertion order.
type NodeID int

// NodeKind discriminates activities from recordsets.
type NodeKind uint8

// Node kinds.
const (
	KindActivity NodeKind = iota
	KindRecordset
)

// RecordsetRef statically describes a recordset node: its name, schema and
// an expected cardinality used by cost models for sources. The actual data
// binding happens in the engine.
type RecordsetRef struct {
	// Name is the recordset's unique name.
	Name string
	// Schema is the flat record schema in reference attribute names.
	Schema data.Schema
	// Rows is the expected cardinality; meaningful for sources.
	Rows float64
	// IsSource marks members of RS_S, IsTarget members of RS_T (§2.1).
	IsSource bool
	IsTarget bool
}

// Clone returns a deep copy.
func (r *RecordsetRef) Clone() *RecordsetRef {
	c := *r
	c.Schema = r.Schema.Clone()
	return &c
}

// gtag is a graph ownership generation: a unique identity allocated per
// mutable graph "epoch". A node whose owner equals the graph's current tag
// may be written in place; any other node is shared with another graph (a
// Mutate parent or child) and must be copied before writing. Calling
// Mutate refreshes the parent's tag too, so both sides of the split
// copy-on-write from then on.
type gtag struct{ _ byte }

// Node is a vertex of the workflow graph: either an activity or a
// recordset, together with its derived input/output schemata.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Act is set for activity nodes.
	Act *Activity
	// RS is set for recordset nodes.
	RS *RecordsetRef
	// In holds the derived input schemata (one per provider, in provider
	// order); populated by RegenerateSchemata. Recordsets use In for the
	// loading flow when they have a provider.
	In []data.Schema
	// Out is the derived output schema; for recordsets it equals the
	// recordset schema.
	Out data.Schema

	// pred and succ are the node's providers and consumers, in attachment
	// order. They are written only through Graph.mutableNode and always
	// replaced, never edited, so copies of a node share them safely.
	pred, succ []NodeID

	// owner is the graph epoch allowed to write this node in place; see
	// Graph.mutableNode. Nodes reachable from a graph with a different tag
	// are structurally shared and copied on first write.
	owner *gtag
}

// Label returns a short human-readable description of the node.
func (n *Node) Label() string {
	if n.Kind == KindRecordset {
		return n.RS.Name
	}
	if n.Act.Name != "" {
		return n.Act.Name
	}
	return n.Act.Sem.String()
}

// Clone returns a deep copy of the node; its edge lists, which are never
// edited in place, are shared. The copy carries no owner; the graph
// inserting it assigns one.
func (n *Node) Clone() *Node {
	c := &Node{ID: n.ID, Kind: n.Kind, pred: n.pred, succ: n.succ}
	if n.Act != nil {
		c.Act = n.Act.Clone()
	}
	if n.RS != nil {
		c.RS = n.RS.Clone()
	}
	c.In = make([]data.Schema, len(n.In))
	for i, s := range n.In {
		c.In[i] = s.Clone()
	}
	c.Out = n.Out.Clone()
	return c
}

// Graph is an ETL workflow: a DAG G(V,E) with V = A ∪ RS and E = Pr (§2.1).
// Provider lists are ordered; a binary activity's first provider feeds its
// first input schema. Graph is not safe for concurrent mutation; the
// optimizer derives per-state graphs with Mutate (copy-on-write) or Clone.
//
// Storage is a node table indexed by NodeID: index 0 is unused, removed
// nodes leave a nil slot, and IDs are never reused, so ascending index
// order is insertion order. Each node carries its own edge lists. Mutate
// children copy only the node table (one word per slot) and structurally
// share every node with the parent; every write, edges included, goes
// through mutableNode, which copies a shared node first, and edge lists
// are replaced rather than edited, so a rewrite touching k nodes
// allocates O(V + k), not a deep copy of the state.
type Graph struct {
	nodes []*Node // indexed by NodeID; nil = removed or never allocated

	nextID NodeID
	live   int // number of non-nil nodes

	// topoCache memoizes TopoSort between mutations; every structural
	// change invalidates it (by clearing this graph's field only — a
	// shared cache slice itself is never written). Only TopoSort writes
	// it: a search state is sorted through it once before its successors
	// fan out, and the successors themselves are sorted through TopoOrder
	// and keep no order, since each is rewired again before any reuse.
	topoCache []NodeID

	// owner is the graph's current ownership epoch (see gtag). It is
	// atomic only because Mutate — callable concurrently on one shared
	// parent by several search workers — refreshes it.
	owner atomic.Pointer[gtag]

	// dbg carries the `-tags etldebug` ownership-audit shadow; nil (and
	// zero-cost) in release builds. See cowdebug_on.go.
	dbg *cowShadow
}

// NewGraph returns an empty workflow graph.
func NewGraph() *Graph {
	g := &Graph{nodes: make([]*Node, 1)}
	g.owner.Store(new(gtag))
	return g
}

// tag returns the graph's current ownership epoch.
func (g *Graph) tag() *gtag { return g.owner.Load() }

// has reports whether id names a live node.
func (g *Graph) has(id NodeID) bool {
	return id > 0 && int(id) < len(g.nodes) && g.nodes[id] != nil
}

// allocID returns the next fresh node ID, growing the node table.
func (g *Graph) allocID() NodeID {
	g.nextID++
	for int(g.nextID) >= len(g.nodes) {
		g.nodes = append(g.nodes, nil)
	}
	return g.nextID
}

// mutableNode returns a node that this graph may write in place: the node
// itself when this graph owns it, otherwise a fresh copy installed in this
// graph's node table (the parent keeps the original). Edge edits and
// schema regeneration funnel every node write through here, which is what
// makes Mutate children safe to rewrite while sharing untouched nodes with
// their parent.
func (g *Graph) mutableNode(id NodeID) *Node {
	n := g.nodes[id]
	if n == nil || n.owner == g.tag() {
		return n
	}
	c := *n
	c.owner = g.tag()
	g.nodes[id] = &c
	return g.nodes[id]
}

// AddRecordset adds a recordset node and returns its ID.
func (g *Graph) AddRecordset(rs *RecordsetRef) NodeID {
	id := g.allocID()
	n := &Node{ID: id, Kind: KindRecordset, RS: rs.Clone(), Out: rs.Schema.Clone(), owner: g.tag()}
	g.nodes[id] = n
	g.live++
	g.topoCache = nil
	return id
}

// AddActivity adds an activity node and returns its ID. The activity's Tag
// defaults to the decimal rendering of the ID when empty.
func (g *Graph) AddActivity(a *Activity) NodeID {
	id := g.allocID()
	act := a.Clone()
	if act.Tag == "" {
		act.Tag = fmt.Sprintf("%d", id)
	}
	n := &Node{ID: id, Kind: KindActivity, Act: act, owner: g.tag()}
	g.nodes[id] = n
	g.live++
	g.topoCache = nil
	return id
}

// appendID returns a fresh slice of ids plus id. Edge lists are replaced,
// never appended in place: copies of a node share its backing arrays, and
// an in-place append from two sibling children would race on the shared
// spare capacity.
func appendID(ids []NodeID, id NodeID) []NodeID {
	out := make([]NodeID, len(ids)+1)
	copy(out, ids)
	out[len(ids)] = id
	return out
}

// removeIDCopy returns a fresh slice of ids without id (nil when empty).
func removeIDCopy(ids []NodeID, id NodeID) []NodeID {
	var out []NodeID
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// AddEdge records that to consumes data from from.
func (g *Graph) AddEdge(from, to NodeID) error {
	if !g.has(from) {
		return fmt.Errorf("workflow: edge from unknown node %d", from)
	}
	if !g.has(to) {
		return fmt.Errorf("workflow: edge to unknown node %d", to)
	}
	if slices.Contains(g.nodes[from].succ, to) {
		return fmt.Errorf("workflow: duplicate edge %d->%d", from, to)
	}
	f := g.mutableNode(from)
	f.succ = appendID(f.succ, to)
	t := g.mutableNode(to)
	t.pred = appendID(t.pred, from)
	g.topoCache = nil
	return nil
}

// MustAddEdge is AddEdge panicking on error; for construction code.
func (g *Graph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// RemoveNode deletes a node and all its edges.
func (g *Graph) RemoveNode(id NodeID) {
	if !g.has(id) {
		return
	}
	n := g.nodes[id]
	for _, s := range n.succ {
		c := g.mutableNode(s)
		c.pred = removeIDCopy(c.pred, id)
	}
	for _, p := range n.pred {
		c := g.mutableNode(p)
		c.succ = removeIDCopy(c.succ, id)
	}
	g.nodes[id] = nil
	g.live--
	g.topoCache = nil
}

// ReplaceProvider substitutes newP for oldP in node's provider list,
// preserving the provider's position — essential for binary activities,
// whose first provider feeds their first input schema. The succ lists of
// oldP and newP are updated accordingly.
func (g *Graph) ReplaceProvider(node, oldP, newP NodeID) error {
	idx := slices.Index(g.Providers(node), oldP)
	if idx < 0 {
		return fmt.Errorf("workflow: node %d has no provider %d to replace", node, oldP)
	}
	n := g.mutableNode(node)
	n.pred = slices.Clone(n.pred)
	n.pred[idx] = newP
	o := g.mutableNode(oldP)
	o.succ = removeIDCopy(o.succ, node)
	p := g.mutableNode(newP)
	p.succ = appendID(p.succ, node)
	g.topoCache = nil
	return nil
}

// MustReplaceProvider is ReplaceProvider panicking on error.
func (g *Graph) MustReplaceProvider(node, oldP, newP NodeID) {
	if err := g.ReplaceProvider(node, oldP, newP); err != nil {
		panic(err)
	}
}

// replaceID returns a fresh copy of ids with new at old's position.
func replaceID(ids []NodeID, old, new NodeID) []NodeID {
	out := slices.Clone(ids)
	out[slices.Index(out, old)] = new
	return out
}

// SwapChain rewires p→a1→a2→c into p→a2→a1→c, where a1 and a2 have one
// provider and one consumer each. p's and c's lists are copied once with
// the one position replaced, so a binary c keeps its input order; a2 and
// a1 take a1's provider and a2's consumer list as they stand.
func (g *Graph) SwapChain(a1, a2 NodeID) error {
	n1, n2 := g.Node(a1), g.Node(a2)
	if n1 == nil || n2 == nil || len(n1.pred) != 1 || len(n2.pred) != 1 || len(n2.succ) != 1 ||
		!slices.Equal(n1.succ, []NodeID{a2}) {
		return fmt.Errorf("workflow: %d->%d is not a link of a unary chain", a1, a2)
	}
	p, c := g.mutableNode(n1.pred[0]), g.mutableNode(n2.succ[0])
	p.succ, c.pred = replaceID(p.succ, a1, a2), replaceID(c.pred, a2, a1)
	link := []NodeID{a2, a1} // one allocation for both new one-element lists
	m1, m2 := g.mutableNode(a1), g.mutableNode(a2)
	m1.pred, m1.succ, m2.pred, m2.succ = link[0:1:1], n2.succ, n1.pred, link[1:2:2]
	g.topoCache = nil
	return nil
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node {
	if !g.has(id) {
		return nil
	}
	return g.nodes[id]
}

// Providers returns the ordered provider IDs of a node (nil for an
// unknown one).
func (g *Graph) Providers(id NodeID) []NodeID {
	if !g.has(id) {
		return nil
	}
	return g.nodes[id].pred
}

// Consumers returns the ordered consumer IDs of a node (nil for an
// unknown one).
func (g *Graph) Consumers(id NodeID) []NodeID {
	if !g.has(id) {
		return nil
	}
	return g.nodes[id].succ
}

// Nodes returns all node IDs in insertion order (ascending, since IDs are
// never reused).
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, g.live)
	for id := 1; id < len(g.nodes); id++ {
		if g.nodes[id] != nil {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.live }

// MaxID returns the largest node ID the graph has allocated; every live
// node's ID is in [1, MaxID], so MaxID+1 sizes a NodeID-indexed table.
func (g *Graph) MaxID() NodeID { return g.nextID }

// Activities returns the IDs of all activity nodes in insertion order.
func (g *Graph) Activities() []NodeID {
	var out []NodeID
	for id := 1; id < len(g.nodes); id++ {
		if n := g.nodes[id]; n != nil && n.Kind == KindActivity {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Recordsets returns the IDs of all recordset nodes in insertion order.
func (g *Graph) Recordsets() []NodeID {
	var out []NodeID
	for id := 1; id < len(g.nodes); id++ {
		if n := g.nodes[id]; n != nil && n.Kind == KindRecordset {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Sources returns the IDs of source recordsets (RS_S).
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n != nil && n.Kind == KindRecordset && len(n.pred) == 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Targets returns the IDs of target recordsets (RS_T).
func (g *Graph) Targets() []NodeID {
	var out []NodeID
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n != nil && n.Kind == KindRecordset && len(n.succ) == 0 && len(n.pred) > 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Mutate returns a copy-on-write child of g: a new graph sharing every
// node (edge lists included) and the memoized topological order with g,
// copying only the node table. The child may be rewritten freely — its
// mutating methods copy shared nodes before writing and replace edge
// lists — while g continues to serve reads (and further Mutate calls)
// unchanged. This is the successor-construction primitive of the search:
// a transition touching k nodes costs O(V + k) instead of a full clone.
//
// Mutate also refreshes g's own ownership tag, so if the caller later
// mutates g itself, g copies shared nodes too instead of corrupting its
// children. Mutate is safe to call concurrently on one shared parent;
// a graph must still never be *rewritten* by two goroutines at once.
func (g *Graph) Mutate() *Graph {
	c := &Graph{
		nodes:     append(make([]*Node, 0, len(g.nodes)+2), g.nodes...),
		nextID:    g.nextID,
		live:      g.live,
		topoCache: g.topoCache,
	}
	tags := new([2]gtag) // one allocation for both fresh epochs
	c.owner.Store(&tags[0])
	// Disown the parent's nodes: whichever side writes first now copies.
	g.owner.Store(&tags[1])
	debugRecordMutate(g, c)
	return c
}

// Clone returns an independent copy of the graph sharing no mutable state:
// node structs are copied (edge lists, activities, recordset descriptors
// and derived schemas stay structurally shared under the package's
// immutability discipline — edge lists are replaced rather than edited,
// transitions clone an activity before changing it, and schema
// regeneration replaces schema slices wholesale).
//
// Prefer Mutate for successor construction; Clone remains for callers that
// want a flat, parent-independent copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:  make([]*Node, len(g.nodes)),
		nextID: g.nextID,
		live:   g.live,
	}
	c.owner.Store(new(gtag))
	tag := c.tag()
	for id, n := range g.nodes {
		if n == nil {
			continue
		}
		cp := *n
		cp.owner = tag
		c.nodes[id] = &cp
	}
	if g.topoCache != nil {
		c.topoCache = append([]NodeID(nil), g.topoCache...)
	}
	return c
}

// DeepClone returns a fully deep copy: nodes, activities, recordset
// descriptors and every derived schema. Nothing is shared with g but the
// edge lists, which are never edited in place. It is
// the heavyweight end of the copying spectrum (Mutate ⊂ Clone ⊂
// DeepClone), useful for tests and for callers that intend to mutate
// activities in place.
func (g *Graph) DeepClone() *Graph {
	c := &Graph{
		nodes:  make([]*Node, len(g.nodes)),
		nextID: g.nextID,
		live:   g.live,
	}
	c.owner.Store(new(gtag))
	tag := c.tag()
	for id, n := range g.nodes {
		if n == nil {
			continue
		}
		cp := n.Clone()
		cp.owner = tag
		c.nodes[id] = cp
	}
	if g.topoCache != nil {
		c.topoCache = append([]NodeID(nil), g.topoCache...)
	}
	return c
}

// TopoSort returns the node IDs in a deterministic topological order
// (Kahn's algorithm breaking ties by smallest ID), or an error if the
// graph contains a cycle. It is TopoOrder with a memo: the order is
// allocated once and kept until the next structural change.
//
// TopoSort is the only writer of the memo, so callers that share one
// graph across goroutines call it once beforehand (the core package's
// local-group fan-out does). A Mutate child inherits its parent's memo and
// drops only its own reference on rewrite.
func (g *Graph) TopoSort() ([]NodeID, error) {
	if g.topoCache == nil {
		order, err := g.TopoOrder(make([]NodeID, 0, g.live))
		if err != nil {
			return nil, err
		}
		g.topoCache = order
	}
	return g.topoCache, nil
}

// stackSlots is the node-table size up to which TopoOrder and the cone
// walk of RegenerateSchemataIncremental keep their scratch in stack
// buffers; larger graphs fall back to make.
const stackSlots = 256

// TopoOrder is TopoSort without the memo: it returns the memoized order
// when there is one, and otherwise appends the order to buf[:0] and stores
// nothing. Ready IDs are bits of a word set and each step pops the lowest,
// so the smallest ready ID always comes next; the in-degrees and the word
// set live on the stack up to stackSlots node slots.
func (g *Graph) TopoOrder(buf []NodeID) ([]NodeID, error) {
	if g.topoCache != nil {
		return g.topoCache, nil
	}
	n := len(g.nodes)
	var indegBuf [stackSlots]int32
	var readyBuf [stackSlots / 64]uint64
	indeg, ready := indegBuf[:], readyBuf[:]
	if n > stackSlots {
		indeg, ready = make([]int32, n), make([]uint64, (n+63)/64)
	}
	ready = ready[:(n+63)/64]
	for id, nd := range g.nodes {
		if nd != nil {
			if indeg[id] = int32(len(nd.pred)); indeg[id] == 0 {
				ready[id>>6] |= 1 << (id & 63)
			}
		}
	}
	out := buf[:0]
	// lo is the first word that may hold a ready bit: popping only clears
	// bits, and an unlocked node below it moves it back.
	for lo := 0; ; {
		for lo < len(ready) && ready[lo] == 0 {
			lo++
		}
		if lo == len(ready) {
			break
		}
		b := bits.TrailingZeros64(ready[lo])
		ready[lo] &^= 1 << b
		id := NodeID(lo<<6 | b)
		out = append(out, id)
		for _, s := range g.nodes[id].succ {
			indeg[s]--
			if indeg[s] == 0 {
				ready[s>>6] |= 1 << (s & 63)
				lo = min(lo, int(s>>6))
			}
		}
	}
	if len(out) != g.live {
		return nil, fmt.Errorf("workflow: graph contains a cycle (%d of %d nodes ordered)", len(out), g.live)
	}
	return out, nil
}

// Validate checks the structural well-formedness rules of §2.1: the graph
// is a DAG; every activity has at least one provider and exactly the arity
// of inputs its operation requires, and at least one consumer; every input
// schema has exactly one provider; recordsets have at most one provider;
// source recordsets have consumers.
func (g *Graph) Validate() error {
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n == nil {
			continue
		}
		switch n.Kind {
		case KindActivity:
			want := 1
			if n.Act.IsBinary() {
				want = 2
			}
			if got := len(n.pred); got != want {
				return fmt.Errorf("workflow: activity %d (%s) has %d providers, wants %d",
					id, n.Label(), got, want)
			}
			if len(n.succ) == 0 {
				return fmt.Errorf("workflow: activity %d (%s) has no consumer", id, n.Label())
			}
		case KindRecordset:
			if len(n.pred) > 1 {
				return fmt.Errorf("workflow: recordset %s has %d providers, at most 1 allowed",
					n.RS.Name, len(n.pred))
			}
			if len(n.pred) == 0 && len(n.succ) == 0 {
				return fmt.Errorf("workflow: recordset %s is disconnected", n.RS.Name)
			}
		}
	}
	return nil
}

// CheckIntegrity verifies the representation invariants of the COW node
// table: node IDs match their slots, the live count is exact, every
// edge endpoint is live, succ/pred mirror each other, and every node
// carries an ownership tag. It exists for the `-tags etldebug` ownership
// audit (transitions run it after every rewrite) and for tests; release
// search paths never call it.
func (g *Graph) CheckIntegrity() error {
	live := 0
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n == nil {
			continue
		}
		live++
		if int(n.ID) != id {
			return fmt.Errorf("workflow: node at slot %d carries ID %d", id, n.ID)
		}
		if n.owner == nil {
			return fmt.Errorf("workflow: node %d has no ownership tag", id)
		}
		for _, s := range n.succ {
			if !g.has(s) {
				return fmt.Errorf("workflow: edge %d->%d points at a dead node", id, s)
			}
			if !slices.Contains(g.nodes[s].pred, NodeID(id)) {
				return fmt.Errorf("workflow: edge %d->%d missing from pred[%d]", id, s, s)
			}
		}
		for _, p := range n.pred {
			if !g.has(p) {
				return fmt.Errorf("workflow: edge %d->%d comes from a dead node", p, id)
			}
			if !slices.Contains(g.nodes[p].succ, NodeID(id)) {
				return fmt.Errorf("workflow: edge %d->%d missing from succ[%d]", p, id, p)
			}
		}
	}
	if live != g.live {
		return fmt.Errorf("workflow: live count %d, found %d nodes", g.live, live)
	}
	for id := g.nextID + 1; int(id) < len(g.nodes); id++ {
		if g.nodes[id] != nil {
			return fmt.Errorf("workflow: node %d beyond the ID counter %d", id, g.nextID)
		}
	}
	return nil
}

// String renders the graph as an adjacency list for diagnostics.
func (g *Graph) String() string {
	order, err := g.TopoSort()
	if err != nil {
		order = g.Nodes()
	}
	var b strings.Builder
	for _, id := range order {
		n := g.nodes[id]
		fmt.Fprintf(&b, "%3d %-30s", id, n.Label())
		if len(n.succ) > 0 {
			b.WriteString(" -> ")
			for i, s := range n.succ {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%d", s)
			}
		}
		if n.Kind == KindActivity {
			fmt.Fprintf(&b, "   [out: %s]", n.Out)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
