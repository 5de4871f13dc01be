package engine

import (
	"context"
	"fmt"
	"time"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// This file is the row-local half of the node driver. The driver's unit
// of execution, retry and fault injection is a stage (planStages): a
// maximal path of streamable activities, or any other node alone. Inside
// a stage no member's output is materialized: a batch of at most
// batchRows rows is carried through every member's resolved kernel,
// interior records live in a scratch slab the next batch overwrites, and
// only a row that survives the whole stage gets a record of its own — the
// run-time counterpart of the paper's MER transition, and the shared-cache
// execution trees of Liu (PAPERS.md), which cut a dataflow at its blocking
// components.

// batchRows bounds a stage's live interior records: batchRows × the
// transforms that write scratch, whatever the input's size.
const batchRows = 1024

// streamable reports whether an activity is row-local: stateless per
// record and order-preserving, so it runs on any batch of any partition.
func streamable(a *workflow.Activity) bool {
	switch a.Sem.Op {
	case workflow.OpFilter, workflow.OpNotNull, workflow.OpProject, workflow.OpFunc, workflow.OpSurrogateKey:
		return true
	case workflow.OpPKCheck:
		return a.Sem.Lookup != ""
	case workflow.OpMerged:
		for _, comp := range a.Sem.Components {
			if !streamable(comp) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// planStages groups a topological order into stages, each a list of node
// IDs in flow order. A maximal path of streamable activities (each has one
// provider) whose every member but the last has exactly one consumer is one
// stage, placed where its head stands in the order — legal, since each
// later member reads only the member before it. Every other node is a
// stage of one; a source (a node without a provider) stands directly
// before the first stage that reads it, so it is held from there on, not
// from the start.
func planStages(g *workflow.Graph, order []workflow.NodeID) [][]workflow.NodeID {
	stages := make([][]workflow.NodeID, 0, len(order))
	placed := make(map[workflow.NodeID]bool) // fused into a stage, or a source put before its reader
	rowLocal := func(id workflow.NodeID) bool {
		n := g.Node(id)
		return n.Kind == workflow.KindActivity && streamable(n.Act)
	}
	for _, id := range order {
		if placed[id] || len(g.Providers(id)) == 0 {
			continue
		}
		ids := []workflow.NodeID{id}
		for tail := id; rowLocal(tail); {
			next := g.Consumers(tail)
			if len(next) != 1 || !rowLocal(next[0]) {
				break
			}
			tail = next[0]
			placed[tail] = true
			ids = append(ids, tail)
		}
		for _, pr := range g.Providers(id) {
			if len(g.Providers(pr)) == 0 && !placed[pr] {
				placed[pr] = true
				stages = append(stages, []workflow.NodeID{pr})
			}
		}
		stages = append(stages, ids)
	}
	return stages
}

// rowKernel is one row-local step of a chain: a filter, which keeps or
// drops a row and shares its record, or a transform, which writes one
// output record per input record. Names, projection, function and lookup
// table are resolved once per stage; the kernel is then read-only and
// shared by the partitions.
type rowKernel struct {
	op     workflow.OpKind
	member int    // the chain member the kernel belongs to
	counts bool   // the member's last kernel: what survives it is the member's output
	name   string // what its errors are wrapped in: the member, and the package component it is

	// Filters (proj nil): the predicate and its layout, the not-null
	// positions, or the key positions and existing keys of a lookup PK check.
	in    data.Schema
	pred  algebra.Expr
	pos   []int
	table *keyTable

	// Transforms: every output record is proj of the input record; a
	// function or surrogate key then overwrites outPos, reading its
	// arguments or production key at pos. off is where in a row's scratch
	// the record is written, or escapes: one fresh record per row, for the
	// last transform of a chain with no filter after it.
	proj   data.Projection
	fn     algebra.Func
	outPos int
	off    int
}

const escapes = -1

// rowChain is a path of row-local activities resolved to kernels.
type rowChain struct {
	kernels []rowKernel
	// filters: some kernel drops rows, so survivors' tags are copied out;
	// without one the output shares its input's tags.
	filters bool
	// rowWidth is the scratch one row needs, in values: the widths of the
	// transforms that do not escape.
	rowWidth int
	// copyWidth is the last transform's width when a filter follows it:
	// the survivors sit in scratch and are copied out as the batch ends. 0
	// when the last transform escapes, or there is none and the chain
	// shares its input's records.
	copyWidth int
	maxArgs   int
}

// appendKernels resolves activity a — a merged package component by
// component — reading layout in and writing layout out. k carries the
// member the kernels belong to and its name.
func (e *Engine) appendKernels(ks []rowKernel, k rowKernel, a *workflow.Activity, in, out data.Schema) ([]rowKernel, error) {
	k.op = a.Sem.Op
	var err error
	switch a.Sem.Op {
	case workflow.OpFilter:
		k.in, k.pred = in, a.Sem.Pred
	case workflow.OpNotNull:
		k.pos, err = keyPositions(in, a.Sem.Attrs)
	case workflow.OpPKCheck:
		// Partition contract (pkcheck, lookup-based): per-row against a
		// read-only key set, one cached table shared by every partition.
		if k.pos, err = keyPositions(in, a.Sem.Attrs); err == nil {
			k.table, err = e.lookupTable(a.Sem.Lookup, false)
		}
	case workflow.OpProject:
	case workflow.OpFunc:
		var ok bool
		if k.fn, ok = algebra.LookupFunc(a.Sem.Fn); !ok {
			return nil, fmt.Errorf("unknown function %q", a.Sem.Fn)
		}
		k.pos, err = keyPositions(in, a.Sem.FnArgs)
	case workflow.OpSurrogateKey:
		if k.pos, err = keyPositions(in, []string{a.Sem.KeyAttr}); err == nil {
			k.table, err = e.lookupTable(a.Sem.Lookup, true)
		}
	case workflow.OpMerged:
		for _, comp := range a.Sem.Components {
			kc := k
			kc.name = fmt.Sprintf("%s: merged component %s", k.name, comp.Sem)
			next, err := workflow.DeriveOutput(comp, []data.Schema{in})
			if err == nil {
				ks, err = e.appendKernels(ks, kc, comp, in, next)
			}
			if err != nil {
				return nil, fmt.Errorf("merged component %s: %w", comp.Sem, err)
			}
			in = next
		}
		return ks, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Sem.Op, err)
	}
	switch a.Sem.Op {
	case workflow.OpFunc, workflow.OpSurrogateKey:
		if k.outPos = out.Index(a.Sem.OutAttr); k.outPos < 0 {
			return nil, fmt.Errorf("output attribute %q not in schema {%s}", a.Sem.OutAttr, out)
		}
		fallthrough
	case workflow.OpProject:
		k.proj = data.NewProjection(in, out)
	}
	return append(ks, k), nil
}

// newRowChain lays the kernels' records out: the last transform's records
// escape when no filter can drop them afterwards, every other transform
// writes its own part of the row's scratch.
func newRowChain(ks []rowKernel) *rowChain {
	c := &rowChain{kernels: ks}
	last := len(ks) - 1 // the last transform; filters may trail it
	for last >= 0 && ks[last].proj == nil {
		last--
	}
	for i := range ks {
		k := &ks[i]
		c.maxArgs = max(c.maxArgs, len(k.pos))
		switch {
		case k.proj == nil:
			c.filters = true
		case i == len(ks)-1:
			k.off = escapes
		default:
			k.off = c.rowWidth
			c.rowWidth += len(k.proj)
		}
	}
	if last >= 0 && last < len(ks)-1 {
		c.copyWidth = len(ks[last].proj)
	}
	return c
}

// resolveChain builds the chain of a stage's members: each member's
// kernels, preceded by a re-layout where its provider's output layout
// differs from its derived input layout (possible after graph rewrites
// reorder attribute generation).
func (e *Engine) resolveChain(g *workflow.Graph, ids []workflow.NodeID) (*rowChain, error) {
	var ks []rowKernel
	src := g.Node(g.Providers(ids[0])[0]).Out
	for m, id := range ids {
		n := g.Node(id)
		k := rowKernel{member: m, name: fmt.Sprintf("engine: activity %d (%s)", id, n.Label())}
		if !src.Equal(n.In[0]) {
			ks = append(ks, rowKernel{op: workflow.OpProject, member: m, proj: data.NewProjection(src, n.In[0])})
		}
		var err error
		if ks, err = e.appendKernels(ks, k, n.Act, n.In[0], n.Out); err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		ks[len(ks)-1].counts = true
		src = n.Out
	}
	return newRowChain(ks), nil
}

// scratch is one partition's reusable batch state: the batch's current
// records and tags, the slab interior records are written into, and a
// function's argument buffer. It lives for the run and grows to the
// largest batch × row width a stage needs — never to batchRows for an
// input that is smaller. Aliasing rule: nothing reachable from a stage's
// output may point into a scratch; a chain's survivors are input records
// (no transform), escaping records, or copies made as the batch ends.
type scratch struct {
	cur  data.Rows
	seq  []int64
	sel  []int32 // a filter's surviving positions
	vals []data.Value
	args []data.Value
}

// fit sizes the scratch for batches of up to n rows through c.
func (sc *scratch) fit(n int, c *rowChain) {
	if len(sc.cur) < n {
		sc.cur, sc.seq, sc.sel = make(data.Rows, n), make([]int64, n), make([]int32, n)
	}
	if len(sc.vals) < n*c.rowWidth {
		sc.vals = make([]data.Value, n*c.rowWidth)
	}
	if len(sc.args) < c.maxArgs {
		sc.args = make([]data.Value, c.maxArgs)
	}
}

// tally is what one partition's run of a stage reports per member: rows
// emitted and seconds spent in the member's kernels.
type tally struct {
	rows []int
	sec  []float64
}

// runBatch carries one batch through every kernel and appends the
// survivors (and, given seqs and a filtering chain, their tags) to out,
// which must have room for len(rows) more; sc must fit len(rows). The
// first kernel reads the input where it lies and the last writes out
// where it lands, so a chain of one copies nothing. t is told each
// member's rows and seconds.
func (c *rowChain) runBatch(rows data.Rows, seqs []int64, out *pslice, sc *scratch, t *tally) error {
	if !c.filters {
		seqs = nil // 1:1: the caller shares the input's tags
	}
	src, srcSeq := rows, seqs
	for ki := range c.kernels {
		k := &c.kernels[ki]
		dst, dstSeq := sc.cur, sc.seq
		if ki == len(c.kernels)-1 {
			dst, dstSeq = out.rows[len(out.rows):cap(out.rows)], out.seqs[len(out.seqs):cap(out.seqs)]
		}
		start := time.Now()
		n, err := c.step(k, src, srcSeq, dst, dstSeq, sc)
		if err != nil {
			if k.name != "" {
				err = fmt.Errorf("%s: %w", k.name, err)
			}
			return err
		}
		if src = dst[:n]; seqs != nil {
			srcSeq = dstSeq[:n]
		}
		t.sec[k.member] += time.Since(start).Seconds()
		if k.counts {
			t.rows[k.member] += n
		}
	}
	if w := c.copyWidth; w > 0 {
		for i, r := range src {
			src[i] = append(make(data.Record, 0, w), r...)
		}
	}
	if out.rows = out.rows[:len(out.rows)+len(src)]; seqs != nil {
		out.seqs = out.seqs[:len(out.seqs)+len(src)]
	}
	return nil
}

// step runs one kernel over src (and its tags, when the chain tracks them)
// into dst, which may be src itself: a filter selects the survivors and
// compacts them, a transform writes one record per row. It returns how
// many rows remain. Each kind has its own loop so the per-row work is
// inlined, not dispatched.
func (c *rowChain) step(k *rowKernel, src data.Rows, srcSeq []int64, dst data.Rows, dstSeq []int64, sc *scratch) (int, error) {
	if k.proj == nil {
		sel := sc.sel[:0]
		switch k.op {
		case workflow.OpFilter:
			for i, r := range src {
				v, err := k.pred.Eval(k.in, r)
				if err != nil {
					return 0, err
				}
				if v.Bool() {
					sel = append(sel, int32(i))
				}
			}
		case workflow.OpNotNull:
		rows:
			for i, r := range src {
				for _, p := range k.pos {
					if r[p].IsNull() {
						continue rows
					}
				}
				sel = append(sel, int32(i))
			}
		default: // lookup PK check: reject keys the lookup already holds
			for i, r := range src {
				if k.table.find(data.HashKey(r, k.pos), r, k.pos) < 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		for m, i := range sel {
			if dst[m] = src[i]; srcSeq != nil {
				dstSeq[m] = srcSeq[i]
			}
		}
		return len(sel), nil
	}
	w, args := len(k.proj), sc.args[:len(k.pos)]
	for i, r := range src {
		var rec data.Record
		if k.off == escapes {
			rec = make(data.Record, w)
		} else {
			o := i*c.rowWidth + k.off
			rec = sc.vals[o : o+w : o+w]
		}
		k.proj.ApplyInto(rec, r)
		switch k.op {
		case workflow.OpFunc:
			for j, p := range k.pos {
				args[j] = r[p]
			}
			v, err := k.fn.Apply(args)
			if err != nil {
				return 0, err
			}
			rec[k.outPos] = v
		case workflow.OpSurrogateKey:
			g := k.table.find(data.HashKey(r, k.pos), r, k.pos)
			if g < 0 {
				return 0, fmt.Errorf("surrogate key: production key %s missing from lookup", r[k.pos[0]])
			}
			// A production key listed twice maps to its last surrogate.
			rec[k.outPos] = k.table.rows[k.table.groups[g].last][1]
		}
		dst[i] = rec
	}
	if srcSeq != nil {
		copy(dstSeq, srcSeq) // a no-op in place
	}
	return len(src), nil
}

// execChain runs chain c over in — a stage of row-local activities ending
// at node id, or a component of package id — per partition, batch by batch.
// Filters keep survivor tags and 1:1 transforms inherit them, so the tag
// invariants hold for the chain as for each member. It returns each
// partition's per-member tally.
func (e *Engine) execChain(ctx context.Context, id workflow.NodeID, n *workflow.Node, c *rowChain, in *pdata, p int, scr []scratch, rowsSoFar int) (*pdata, []tally, error) {
	members := c.kernels[len(c.kernels)-1].member + 1
	result, tallies := newPdata(p), make([]tally, p)
	err := e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		ps, sc, t := in.parts[q], &scr[q], &tallies[q]
		t.rows, t.sec = make([]int, members), make([]float64, members)
		res := pslice{rows: make(data.Rows, 0, len(ps.rows)), seqs: ps.seqs}
		if c.filters {
			res.seqs = make([]int64, 0, len(ps.rows))
		}
		b := min(batchRows, len(ps.rows))
		sc.fit(b, c)
		for lo := 0; lo < len(ps.rows); lo += b {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("engine: run cancelled at node %d (%s) partition %d after %d rows: %w",
					id, n.Label(), q, rowsSoFar+lo, err)
			}
			hi := min(lo+b, len(ps.rows))
			if err := c.runBatch(ps.rows[lo:hi], ps.seqs[lo:hi], &res, sc, t); err != nil {
				return err
			}
		}
		result.parts[q] = res
		return nil
	})
	return result, tallies, err
}
