// Package share executes a suite of ETL workflows as one scheduled job.
// It detects maximal subgraphs shared across the suite by content — two
// nodes are in one closure class when their upstream closures are equal:
// graph structure, activity algebra and the digests of every bound source
// and lookup the closure reads — materializes each shared intermediate
// once into a slot, held within a byte budget until the last read the plan
// counted, and runs every workflow's own graph with bounded concurrency,
// each shared intermediate restored from its slot through the engine's
// stage hook.
//
// The headline invariant mirrors the engine's partition contract: every
// workflow's targets and NodeRows are bit-identical to running it alone,
// at any suite-worker count, cache budget (including 0, which spills every
// shared intermediate) and partition count.
package share

import (
	"context"
	"encoding/binary"
	"fmt"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// classes numbers the suite's closures. Two nodes, in one member or two,
// are in one class exactly when their closures are equal: the same
// computation over the same data. A node's key is its own part followed by
// its providers' classes, so the bytes compared are the closure itself,
// not a hash of it. Node IDs and activity tags stay out of the key: equal
// closures in different graphs must meet. A class is numbered when first
// met, so every node's class is greater than each of its providers'.
type classes struct {
	ids map[string]int
	key []byte // reused for every node's key
}

// number returns the class of every live node of g, a validated graph whose
// sources and lookups digests holds.
func (c *classes) number(g *workflow.Graph, digests map[string]uint64) map[workflow.NodeID]int {
	order, _ := g.TopoSort() // validated: memoized
	of := make(map[workflow.NodeID]int, len(order))
	for _, id := range order {
		c.key = c.key[:0]
		c.own(g, id, digests)
		for _, p := range g.Providers(id) {
			c.key = binary.AppendUvarint(c.key, uint64(of[p]))
		}
		if of[id] = c.ids[string(c.key)]; of[id] == 0 {
			of[id] = len(c.ids) + 1
			c.ids[string(c.key)] = of[id]
		}
	}
	return of
}

// own appends what the node itself contributes to its key: what pins the
// rows it emits given its providers'. Text is separated by 0xff and a
// schema ended by 0xfe, bytes that UTF-8 text never holds.
func (c *classes) own(g *workflow.Graph, id workflow.NodeID, digests map[string]uint64) {
	n := g.Node(id)
	switch n.Kind {
	case workflow.KindRecordset:
		if len(g.Providers(id)) == 0 {
			// Source: name, declared schema and the digest of the bound
			// data. The name is kept, so that one class means "the same
			// source", never "equal bytes from another file".
			c.str("src")
			c.str(n.RS.Name)
			c.schema(n.RS.Schema)
			c.key = binary.LittleEndian.AppendUint64(c.key, digests[n.RS.Name])
		} else {
			c.str("tgt")
			c.str(n.RS.Name)
			c.schema(n.RS.Schema)
		}
	case workflow.KindActivity:
		// The canonical algebra string pins the operation and every
		// parameter; input and output schemas pin the instantiation (the
		// same algebra over differently-shaped inputs is a different
		// computation).
		c.str("act")
		c.str(n.Act.Sem.String())
		for _, in := range n.In {
			c.schema(in)
		}
		c.schema(n.Out)
		if name := n.Act.Sem.Lookup; name != "" {
			c.str(name)
			c.key = binary.LittleEndian.AppendUint64(c.key, digests[name])
		}
	}
}

func (c *classes) str(s string) { c.key = append(append(c.key, s...), 0xff) }

func (c *classes) schema(s data.Schema) {
	for _, attr := range s {
		c.str(attr)
	}
	c.key = append(c.key, 0xfe)
}

// digests returns the digest of every recordset g, a validated graph,
// reads, its sources' and its lookups', as the bound recordset states it:
// planning scans nothing and knows no kinds. ctx is checked before each
// digest.
func digests(ctx context.Context, g *workflow.Graph, bindings map[string]data.Recordset) (map[string]uint64, error) {
	order, _ := g.TopoSort() // validated: memoized
	ds := make(map[string]uint64)
	for _, id := range order {
		var name string
		if n := g.Node(id); n.Kind == workflow.KindActivity {
			name = n.Act.Sem.Lookup
		} else if len(g.Providers(id)) == 0 {
			name = n.RS.Name
		}
		if _, done := ds[name]; name == "" || done {
			continue
		}
		rs, ok := bindings[name]
		if !ok {
			return nil, fmt.Errorf("share: recordset %q is not bound", name)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := rs.Digest()
		if err != nil {
			return nil, fmt.Errorf("share: digesting %q: %w", name, err)
		}
		ds[name] = d
	}
	return ds, nil
}
