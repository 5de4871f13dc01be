package workflow

import (
	"fmt"
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

// Clone returns a deep copy of the node. The copy carries no owner; the
// graph inserting it assigns one.
func (n *Node) Clone() *Node {
	c := &Node{ID: n.ID, Kind: n.Kind}
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
// Storage is slice-backed and indexed by NodeID: index 0 is unused, removed
// nodes leave a nil slot, and IDs are never reused, so ascending index
// order is insertion order. Mutate children copy only the three outer
// slices (O(V) pointer copies) and structurally share every node and edge
// list with the parent; all mutating methods replace inner slices with
// fresh copies rather than editing them, and node writes go through
// mutableNode, so a rewrite touching k nodes allocates O(V + k), not a
// deep copy of the state.
type Graph struct {
	nodes []*Node    // indexed by NodeID; nil = removed or never allocated
	succ  [][]NodeID // consumers, in attachment order
	pred  [][]NodeID // providers, in attachment order

	nextID NodeID
	live   int // number of non-nil nodes

	// topoCache memoizes TopoSort between mutations; every structural
	// change invalidates it (by clearing this graph's field only — a
	// shared cache slice itself is never written). Derived states are
	// costed, signed and checked several times each, so the memo is a
	// large win during search.
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
	g := &Graph{
		nodes: make([]*Node, 1),
		succ:  make([][]NodeID, 1),
		pred:  make([][]NodeID, 1),
	}
	g.owner.Store(new(gtag))
	return g
}

// tag returns the graph's current ownership epoch.
func (g *Graph) tag() *gtag { return g.owner.Load() }

// has reports whether id names a live node.
func (g *Graph) has(id NodeID) bool {
	return id > 0 && int(id) < len(g.nodes) && g.nodes[id] != nil
}

// allocID returns the next fresh node ID, growing the backing slices.
func (g *Graph) allocID() NodeID {
	g.nextID++
	for int(g.nextID) >= len(g.nodes) {
		g.nodes = append(g.nodes, nil)
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
	}
	return g.nextID
}

// mutableNode returns a node that this graph may write in place: the node
// itself when this graph owns it, otherwise a fresh copy installed in this
// graph's node table (the parent keeps the original). Schema regeneration
// funnels every node write through here, which is what makes Mutate
// children safe to rewrite while sharing untouched nodes with their
// parent.
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
// never appended in place: a Mutate child shares its parent's backing
// arrays, and an in-place append from two sibling children would race on
// the shared spare capacity.
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
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("workflow: duplicate edge %d->%d", from, to)
		}
	}
	g.succ[from] = appendID(g.succ[from], to)
	g.pred[to] = appendID(g.pred[to], from)
	g.topoCache = nil
	return nil
}

// MustAddEdge is AddEdge panicking on error; for construction code.
func (g *Graph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge from→to if present.
func (g *Graph) RemoveEdge(from, to NodeID) {
	g.succ[from] = removeIDCopy(g.succ[from], to)
	g.pred[to] = removeIDCopy(g.pred[to], from)
	g.topoCache = nil
}

// RemoveNode deletes a node and all its edges.
func (g *Graph) RemoveNode(id NodeID) {
	if !g.has(id) {
		return
	}
	for _, s := range g.succ[id] {
		g.pred[s] = removeIDCopy(g.pred[s], id)
	}
	for _, p := range g.pred[id] {
		g.succ[p] = removeIDCopy(g.succ[p], id)
	}
	g.nodes[id] = nil
	g.succ[id] = nil
	g.pred[id] = nil
	g.live--
	g.topoCache = nil
}

// ReplaceProvider substitutes newP for oldP in node's provider list,
// preserving the provider's position — essential for binary activities,
// whose first provider feeds their first input schema. The succ lists of
// oldP and newP are updated accordingly.
func (g *Graph) ReplaceProvider(node, oldP, newP NodeID) error {
	preds := g.pred[node]
	idx := -1
	for i, p := range preds {
		if p == oldP {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("workflow: node %d has no provider %d to replace", node, oldP)
	}
	out := make([]NodeID, len(preds))
	copy(out, preds)
	out[idx] = newP
	g.pred[node] = out
	g.succ[oldP] = removeIDCopy(g.succ[oldP], node)
	g.succ[newP] = appendID(g.succ[newP], node)
	g.topoCache = nil
	return nil
}

// MustReplaceProvider is ReplaceProvider panicking on error.
func (g *Graph) MustReplaceProvider(node, oldP, newP NodeID) {
	if err := g.ReplaceProvider(node, oldP, newP); err != nil {
		panic(err)
	}
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node {
	if !g.has(id) {
		return nil
	}
	return g.nodes[id]
}

// Providers returns the ordered provider IDs of a node.
func (g *Graph) Providers(id NodeID) []NodeID {
	if id <= 0 || int(id) >= len(g.pred) {
		return nil
	}
	return g.pred[id]
}

// Consumers returns the ordered consumer IDs of a node.
func (g *Graph) Consumers(id NodeID) []NodeID {
	if id <= 0 || int(id) >= len(g.succ) {
		return nil
	}
	return g.succ[id]
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
		if n != nil && n.Kind == KindRecordset && len(g.pred[id]) == 0 {
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
		if n != nil && n.Kind == KindRecordset && len(g.succ[id]) == 0 && len(g.pred[id]) > 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Mutate returns a copy-on-write child of g: a new graph sharing every
// node, edge list and the memoized topological order with g, copying only
// the three outer index slices. The child may be rewritten freely — its
// mutating methods replace inner slices and copy shared nodes before
// writing — while g continues to serve reads (and further Mutate calls)
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
		succ:      append(make([][]NodeID, 0, len(g.succ)+2), g.succ...),
		pred:      append(make([][]NodeID, 0, len(g.pred)+2), g.pred...),
		nextID:    g.nextID,
		live:      g.live,
		topoCache: g.topoCache,
	}
	c.owner.Store(new(gtag))
	// Disown the parent's nodes: whichever side writes first now copies.
	g.owner.Store(new(gtag))
	debugRecordMutate(g, c)
	return c
}

// Clone returns an independent copy of the graph sharing no mutable state:
// node structs and edge lists are copied (activities, recordset
// descriptors and derived schemas stay structurally shared under the
// package's immutability discipline — transitions clone an activity before
// changing it, and schema regeneration replaces schema slices wholesale).
//
// Prefer Mutate for successor construction; Clone remains for callers that
// want a flat, parent-independent copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:  make([]*Node, len(g.nodes)),
		succ:   make([][]NodeID, len(g.succ)),
		pred:   make([][]NodeID, len(g.pred)),
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
	for id, s := range g.succ {
		if len(s) > 0 {
			c.succ[id] = append([]NodeID(nil), s...)
		}
	}
	for id, p := range g.pred {
		if len(p) > 0 {
			c.pred[id] = append([]NodeID(nil), p...)
		}
	}
	if g.topoCache != nil {
		c.topoCache = append([]NodeID(nil), g.topoCache...)
	}
	return c
}

// DeepClone returns a fully deep copy: nodes, activities, recordset
// descriptors and every derived schema. Nothing is shared with g. It is
// the heavyweight end of the copying spectrum (Mutate ⊂ Clone ⊂
// DeepClone), useful for tests and for callers that intend to mutate
// activities in place.
func (g *Graph) DeepClone() *Graph {
	c := &Graph{
		nodes:  make([]*Node, len(g.nodes)),
		succ:   make([][]NodeID, len(g.succ)),
		pred:   make([][]NodeID, len(g.pred)),
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
	for id, s := range g.succ {
		if len(s) > 0 {
			c.succ[id] = append([]NodeID(nil), s...)
		}
	}
	for id, p := range g.pred {
		if len(p) > 0 {
			c.pred[id] = append([]NodeID(nil), p...)
		}
	}
	if g.topoCache != nil {
		c.topoCache = append([]NodeID(nil), g.topoCache...)
	}
	return c
}

// TopoSort returns the node IDs in a deterministic topological order
// (Kahn's algorithm breaking ties by smallest ID). It returns an error if
// the graph contains a cycle.
//
// The order is memoized; callers that share one graph across goroutines
// must call TopoSort once beforehand to prime the cache (see the core
// package's pool). A Mutate child inherits its parent's primed cache and
// drops only its own reference on rewrite.
func (g *Graph) TopoSort() ([]NodeID, error) {
	if g.topoCache != nil {
		return g.topoCache, nil
	}
	// Kahn's algorithm over a binary min-heap of ready IDs: three
	// allocations (in-degrees, heap, order) however many nodes unlock.
	indeg := make([]int, len(g.nodes))
	ready := make([]NodeID, 0, g.live)
	for id := 1; id < len(g.nodes); id++ {
		if g.nodes[id] == nil {
			continue
		}
		indeg[id] = len(g.pred[id])
		if indeg[id] == 0 {
			ready = append(ready, NodeID(id)) // ascending, so already a heap
		}
	}
	out := make([]NodeID, 0, g.live)
	for len(ready) > 0 {
		id := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		out = append(out, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
				siftUp(ready)
			}
		}
	}
	if len(out) != g.live {
		return nil, fmt.Errorf("workflow: graph contains a cycle (%d of %d nodes ordered)", len(out), g.live)
	}
	g.topoCache = out
	return out, nil
}

// siftUp restores the min-heap property after an append to h.
func siftUp(h []NodeID) {
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if h[i] <= h[j] {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// siftDown restores the min-heap property after h[0] was replaced.
func siftDown(h []NodeID) {
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h[j+1] < h[j] {
			j++
		}
		if h[i] <= h[j] {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
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
			if got := len(g.pred[id]); got != want {
				return fmt.Errorf("workflow: activity %d (%s) has %d providers, wants %d",
					id, n.Label(), got, want)
			}
			if len(g.succ[id]) == 0 {
				return fmt.Errorf("workflow: activity %d (%s) has no consumer", id, n.Label())
			}
		case KindRecordset:
			if len(g.pred[id]) > 1 {
				return fmt.Errorf("workflow: recordset %s has %d providers, at most 1 allowed",
					n.RS.Name, len(g.pred[id]))
			}
			if len(g.pred[id]) == 0 && len(g.succ[id]) == 0 {
				return fmt.Errorf("workflow: recordset %s is disconnected", n.RS.Name)
			}
		}
	}
	return nil
}

// CheckIntegrity verifies the representation invariants of the slice-backed
// COW storage: node IDs match their slots, the live count is exact, every
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
		for _, s := range g.succ[id] {
			if !g.has(s) {
				return fmt.Errorf("workflow: edge %d->%d points at a dead node", id, s)
			}
			if !containsID(g.pred[s], NodeID(id)) {
				return fmt.Errorf("workflow: edge %d->%d missing from pred[%d]", id, s, s)
			}
		}
		for _, p := range g.pred[id] {
			if !g.has(p) {
				return fmt.Errorf("workflow: edge %d->%d comes from a dead node", p, id)
			}
			if !containsID(g.succ[p], NodeID(id)) {
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

func containsID(ids []NodeID, id NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
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
		if len(g.succ[id]) > 0 {
			b.WriteString(" -> ")
			for i, s := range g.succ[id] {
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
