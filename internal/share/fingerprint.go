// Package share executes a suite of ETL workflows as one scheduled job.
// It detects maximal subgraphs shared across the suite by content — an
// upstream-closure fingerprint covering graph structure, activity algebra
// and the digests of every bound source and lookup the closure reads —
// materializes each shared intermediate exactly once through a
// content-addressed, byte-budgeted result cache, and runs the residual
// workflows over the cached intermediates with bounded concurrency.
//
// The headline invariant mirrors the engine's partition contract: every
// workflow's targets and NodeRows are bit-identical to running it alone,
// at any suite-worker count, cache budget (including 0, which forces the
// eviction and recompute paths) and partition count.
package share

import (
	"context"
	"fmt"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// fpState is the FNV-1a fold used for closure fingerprints. It mirrors the
// fold in workflow.Graph.Fingerprint but deliberately never hashes node
// IDs or activity tags: two structurally and semantically equal closures
// in *different* graphs (with different IDs) must collide, because the
// fingerprint is the structural half of a cross-workflow cache key.
type fpState uint64

func newFP() fpState { return fpState(14695981039346656037) }

func (f *fpState) byte(b byte) {
	*f = fpState((uint64(*f) ^ uint64(b)) * 1099511628211)
}

func (f *fpState) mix(x uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(x))
		x >>= 8
	}
}

func (f *fpState) str(s string) {
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
	f.byte(0xff)
}

func (f *fpState) schema(s data.Schema) {
	for _, attr := range s {
		f.str(attr)
	}
	f.byte(0xfe)
}

// fingerprinter computes per-node upstream-closure fingerprints for one
// workflow. Source and lookup digests are computed once per binding name
// and shared across nodes.
type fingerprinter struct {
	g        *workflow.Graph
	bindings map[string]data.Recordset
	digests  map[string]uint64
	memo     map[workflow.NodeID]uint64
}

// closureFingerprints returns, for every live node, an ID-independent hash
// of the node's upstream closure: everything that determines the rows the
// node emits when executed — source names, schemas and *data digests*,
// lookup contents, activity algebra and schemas, and provider order. Two
// nodes (in the same or different workflows) with equal fingerprints
// produce bit-identical rows, which is what makes the fingerprint sound as
// a cache key (see DESIGN.md §12).
func closureFingerprints(ctx context.Context, g *workflow.Graph, bindings map[string]data.Recordset) (map[workflow.NodeID]uint64, error) {
	fp := &fingerprinter{
		g:        g,
		bindings: bindings,
		digests:  make(map[string]uint64),
		memo:     make(map[workflow.NodeID]uint64, g.Len()),
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		if err := fp.node(ctx, id); err != nil {
			return nil, err
		}
	}
	return fp.memo, nil
}

// bindingDigest returns the content digest of the named bound recordset, as
// the recordset states it: fingerprinting scans nothing and knows no kinds.
func (fp *fingerprinter) bindingDigest(ctx context.Context, name string) (uint64, error) {
	if d, ok := fp.digests[name]; ok {
		return d, nil
	}
	rs, ok := fp.bindings[name]
	if !ok {
		return 0, fmt.Errorf("share: recordset %q is not bound", name)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	d, err := rs.Digest()
	if err != nil {
		return 0, fmt.Errorf("share: digesting %q: %w", name, err)
	}
	fp.digests[name] = d
	return d, nil
}

// lookupNames collects the lookup recordsets an activity's semantics read,
// including those of packaged (merged) components.
func lookupNames(sem *workflow.Semantics, into []string) []string {
	if sem.Lookup != "" {
		into = append(into, sem.Lookup)
	}
	for _, c := range sem.Components {
		into = lookupNames(&c.Sem, into)
	}
	return into
}

// node folds one node's fingerprint into the memo. Providers are already
// fingerprinted (topological order).
func (fp *fingerprinter) node(ctx context.Context, id workflow.NodeID) error {
	n := fp.g.Node(id)
	f := newFP()
	switch n.Kind {
	case workflow.KindRecordset:
		if len(fp.g.Providers(id)) == 0 {
			// Source: name, declared schema and the digest of the bound
			// data. The name is folded deliberately — content addressing
			// would work without it, but keeping it makes a fingerprint
			// collision mean "the same source", never "coincidentally
			// equal bytes from another file".
			f.str("src")
			f.str(n.RS.Name)
			f.schema(n.RS.Schema)
			d, err := fp.bindingDigest(ctx, n.RS.Name)
			if err != nil {
				return err
			}
			f.mix(d)
		} else {
			f.str("tgt")
			f.str(n.RS.Name)
			f.schema(n.RS.Schema)
		}
	case workflow.KindActivity:
		// The canonical algebra string pins the operation and every
		// parameter; input and output schemas pin the instantiation
		// (the same algebra over differently-shaped inputs is a
		// different computation).
		f.str("act")
		f.str(n.Act.Sem.String())
		for _, in := range n.In {
			f.schema(in)
		}
		f.schema(n.Out)
		for _, name := range lookupNames(&n.Act.Sem, nil) {
			f.str(name)
			d, err := fp.bindingDigest(ctx, name)
			if err != nil {
				return err
			}
			f.mix(d)
		}
	}
	for _, p := range fp.g.Providers(id) {
		f.mix(fp.memo[p])
	}
	f.mix(0x9e3779b97f4a7c15)
	fp.memo[id] = uint64(f)
	return nil
}

// stageName is the reserved recordset name under which a shared
// intermediate is injected into residual graphs and spilled to disk.
func stageName(fp uint64) string {
	return fmt.Sprintf("__shared_%016x", fp)
}

// cacheKey renders a fingerprint as the cache's string key.
func cacheKey(fp uint64) string {
	return fmt.Sprintf("%016x", fp)
}
