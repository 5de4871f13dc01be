package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// This file is the row-local half of the node driver. The driver's unit
// of execution, retry and fault injection is a stage (planStages): a
// maximal path of row-local activities (workflow.RowLocal), or any other
// node alone. Inside a stage no member's output is materialized: a batch
// of at most batchRows rows is carried through every member's resolved
// kernel, each row keeps one work record in a scratch slab the next batch
// overwrites — members write its slots instead of copying it — and only a
// row that survives the whole stage gets a record of its own, cut from the
// run's chunks in the layout its reader wants: the run-time counterpart of
// the paper's MER transition, and the shared-cache execution trees of Liu
// (PAPERS.md), which cut a dataflow at its blocking components.

// batchRows bounds a stage's live work records, whatever the input's size.
const batchRows = 1024

// planStages groups a topological order into stages, each a list of node
// IDs in flow order. A maximal path of row-local activities (each has one
// provider) whose every member but the last has exactly one consumer and
// is not one the hook (when not nil) Ends is one stage, placed where its
// head stands in the order — legal, since each later member reads only the
// member before it. Every other node is a stage of one; a source (a node
// without a provider) stands directly before the first stage that reads
// it, so it is held from there on, not from the start.
func planStages(g *workflow.Graph, order []workflow.NodeID, hook StageHook) [][]workflow.NodeID {
	stages := make([][]workflow.NodeID, 0, len(order))
	placed := make(map[workflow.NodeID]bool) // fused into a stage, or a source put before its reader
	rowLocal := func(id workflow.NodeID) bool {
		n := g.Node(id)
		return n.Kind == workflow.KindActivity && n.Act.Class()&workflow.RowLocal != 0
	}
	for _, id := range order {
		if placed[id] || len(g.Providers(id)) == 0 {
			continue
		}
		ids := []workflow.NodeID{id}
		for tail := id; rowLocal(tail) && (hook == nil || !hook.Ends(tail)); {
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

// rowKernel is one row-local step of a chain — one per member — resolved
// against the chain's work layout once per attempt, then read-only and
// shared by the partitions: a filter keeps or drops a row where it lies,
// a writer (function or surrogate key) writes one slot of the row, and a
// projection leaves the row as it is.
type rowKernel struct {
	op   workflow.OpKind
	name string // what its errors are wrapped in: the member

	// Filters: the predicate and the work layout with every attribute the
	// member does not read blanked, the not-null positions, or the key
	// positions and existing keys of a lookup PK check. Writers: the
	// argument or production-key positions, the function or lookup table,
	// and the attribute written, at outPos.
	in     data.Schema
	pred   algebra.Expr
	pos    []int
	table  *keyTable
	fn     algebra.Func
	outPos int
	writes string
	// The chain's first writer copies a row's input record into the row's
	// work record (fresh). The last writer with no filter after it writes
	// the row's output record instead (fused): proj of the row, with outPos
	// its position in the output layout, or -1 when a later projection
	// drops the attribute.
	fresh bool
	proj  data.Projection
}

// rowChain is a path of row-local activities resolved to kernels.
type rowChain struct {
	kernels []rowKernel
	// filters: some kernel drops rows, so survivors' tags are copied out;
	// without one the output shares its input's tags.
	filters bool
	// work is the width of a row's work record in scratch, 0 when no writer
	// needs one: the input layout followed by each attribute a member adds,
	// one slot per name.
	work    int
	maxArgs int
	// out is the layout the chain writes. outProj projects a survivor into
	// its output record as the batch ends; nil when the rows already are
	// their output records — written by a fused writer, or input records
	// passed on in the layout they came in.
	out     data.Schema
	outProj data.Projection
}

// resolveKernel resolves activity a, which reads layout in and writes
// layout out, at in's slots in the work layout work. k carries its name.
func (e *Engine) resolveKernel(k rowKernel, a *workflow.Activity, in, out, work data.Schema) (rowKernel, error) {
	k.op = a.Sem.Op
	var err error
	switch a.Sem.Op {
	case workflow.OpFilter:
		k.in = make(data.Schema, len(work))
		for j, attr := range work {
			if in.Has(attr) {
				k.in[j] = attr
			}
		}
		k.pred = bindAttrs(a.Sem.Pred, k.in, &err)
	case workflow.OpNotNull:
		k.pos, err = keyPositions(in, a.Sem.Attrs)
	case workflow.OpPKCheck:
		// Partition contract (pkcheck, lookup-based): per-row against a
		// read-only key set, one cached table shared by every partition.
		if k.pos, err = keyPositions(in, a.Sem.Attrs); err == nil {
			k.table, err = e.lookupTable(a.Sem.Lookup, false)
		}
	case workflow.OpFunc:
		var ok bool
		if k.fn, ok = algebra.LookupFunc(a.Sem.Fn); !ok {
			return k, fmt.Errorf("unknown function %q", a.Sem.Fn)
		}
		k.pos, err = keyPositions(in, a.Sem.FnArgs)
	case workflow.OpSurrogateKey:
		if k.pos, err = keyPositions(in, []string{a.Sem.KeyAttr}); err == nil {
			k.table, err = e.lookupTable(a.Sem.Lookup, true)
		}
	}
	if err != nil {
		return k, fmt.Errorf("%s: %w", a.Sem.Op, err)
	}
	for j, p := range k.pos {
		k.pos[j] = work.Index(in[p])
	}
	if a.Sem.Op == workflow.OpFunc || a.Sem.Op == workflow.OpSurrogateKey {
		if k.writes, k.outPos = a.Sem.OutAttr, work.Index(a.Sem.OutAttr); !out.Has(k.writes) {
			return k, fmt.Errorf("output attribute %q not in schema {%s}", k.writes, out)
		}
	}
	return k, nil
}

// bindAttrs returns pred with each attribute reference resolved to its
// position in the layout in, and each call to its function, once, so that
// a row costs no name search; a function that is not registered is set in
// err. Expressions of other kinds are kept as they are.
func bindAttrs(pred algebra.Expr, in data.Schema, err *error) algebra.Expr {
	switch e := pred.(type) {
	case algebra.Attr:
		return boundAttr{e, in.Index(e.Name)}
	case algebra.Cmp:
		e.Left, e.Right = bindAttrs(e.Left, in, err), bindAttrs(e.Right, in, err)
		return e
	case algebra.Arith:
		e.Left, e.Right = bindAttrs(e.Left, in, err), bindAttrs(e.Right, in, err)
		return e
	case algebra.Logic:
		e.Left, e.Right = bindAttrs(e.Left, in, err), bindAttrs(e.Right, in, err)
		return e
	case algebra.Not:
		e.Inner = bindAttrs(e.Inner, in, err)
		return e
	case algebra.IsNull:
		e.Inner = bindAttrs(e.Inner, in, err)
		return e
	case algebra.Call:
		args := make([]algebra.Expr, len(e.Args))
		for i, arg := range e.Args {
			args[i] = bindAttrs(arg, in, err)
		}
		e.Args = args
		bound, bindErr := e.Bind()
		*err = cmp.Or(*err, bindErr)
		return bound
	}
	return pred
}

// boundAttr is an attribute reference at its position in the layout it
// was bound to. One not in the layout fails where Attr.Eval fails, at the
// first row, with its error.
type boundAttr struct {
	algebra.Attr
	pos int
}

func (b boundAttr) Eval(schema data.Schema, rec data.Record) (data.Value, error) {
	if b.pos < 0 || b.pos >= len(rec) {
		return b.Attr.Eval(schema, rec)
	}
	return rec[b.pos], nil
}

// resolveChain builds the chain of a stage's members over an input laid
// out as src. The chain writes its last member's output layout or, when
// its only consumer is a union, the union's, so the union only
// concatenates.
func (e *Engine) resolveChain(g *workflow.Graph, ids []workflow.NodeID, src data.Schema) (*rowChain, error) {
	id := ids[len(ids)-1]
	out := g.Node(id).Out
	if cs := g.Consumers(id); len(cs) == 1 {
		if u := g.Node(cs[0]); u.Kind == workflow.KindActivity && u.Act.Sem.Op == workflow.OpUnion && u.Out.SameSet(out) {
			out = u.Out
		}
	}
	nodes := make([]*workflow.Node, len(ids))
	for m, id := range ids {
		nodes[m] = g.Node(id)
	}
	return e.newRowChain(src, out, nodes...)
}

// newRowChain resolves the chain of nodes reading layout src and writing
// layout out. A member's input layout holds only attributes of the layout
// before it — a re-layout is then nothing to a work record.
func (e *Engine) newRowChain(src, out data.Schema, nodes ...*workflow.Node) (*rowChain, error) {
	work, prev := src.Clone(), src
	for _, n := range nodes {
		if !prev.HasAll(n.In[0]) {
			return nil, fmt.Errorf("engine: activity %d (%s): input {%s} is not a layout of its provider's output {%s}", n.ID, n.Label(), n.In[0], prev)
		}
		for _, attr := range n.Out {
			if !work.Has(attr) {
				work = append(work, attr)
			}
		}
		prev = n.Out
	}
	c := &rowChain{out: out, outProj: data.NewProjection(work, out)}
	first, last, lastFilter := -1, -1, -1
	for m, n := range nodes {
		k, err := e.resolveKernel(rowKernel{name: fmt.Sprintf("engine: activity %d (%s)", n.ID, n.Label())}, n.Act, n.In[0], n.Out, work)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		switch {
		case k.writes != "":
			if last = m; first < 0 {
				first = m
			}
		case k.op != workflow.OpProject:
			lastFilter, c.filters = m, true
		}
		c.maxArgs = max(c.maxArgs, len(k.pos))
		c.kernels = append(c.kernels, k)
	}
	switch {
	case last > lastFilter: // fused: the rows leave the last writer as output records
		k := &c.kernels[last]
		k.proj, k.outPos, c.outProj = c.outProj, out.Index(k.writes), nil
	case last < 0 && src.Equal(out): // no writer and no re-layout: the input records pass on
		c.outProj = nil
	}
	if first >= 0 && c.kernels[first].proj == nil {
		c.kernels[first].fresh, c.work = true, len(work)
	}
	return c, nil
}

// scratch is one partition's batch state: the batch's current records and
// tags, a filter's selection, the slab work records are cut from, a
// function's argument buffer, and the chunks output records are cut from.
// It lives for the run; the slab grows to the largest batch × work width a
// stage needs — never to batchRows for a smaller input. Aliasing rule:
// nothing reachable from a stage's output may point into the reused slab;
// a chain's survivors are input records (no writer), or fused writers'
// records or end-of-batch projections, cut from the chunks, never reused.
type scratch struct {
	cur  data.Rows
	seq  []int64
	sel  []int32
	vals []data.Value
	args []data.Value
	recs data.Chunks
}

// fit sizes the scratch for batches of up to n rows through c.
func (sc *scratch) fit(n int, c *rowChain) {
	if len(sc.cur) < n {
		sc.cur, sc.seq, sc.sel = make(data.Rows, n), make([]int64, n), make([]int32, n)
	}
	if len(sc.vals) < n*c.work {
		sc.vals = make([]data.Value, n*c.work)
	}
	if len(sc.args) < c.maxArgs {
		sc.args = make([]data.Value, c.maxArgs)
	}
}

// tally is what one partition's run of a stage reports per member: rows
// emitted and seconds spent in the member's kernel.
type tally struct {
	rows []int
	sec  []float64
}

// runBatch carries one batch through every kernel and appends the
// survivors (and, given seqs and a filtering chain, their tags) to out,
// which must have room for len(rows) more; sc must fit len(rows). Kernels
// read the input where it lies, and a fused writer writes out where the
// rows land, so a chain of one copies nothing. t is told each member's rows
// and seconds.
func (c *rowChain) runBatch(rows data.Rows, seqs []int64, out *pslice, sc *scratch, t *tally) error {
	if !c.filters {
		seqs = nil // 1:1: the caller shares the input's tags
	}
	tail := out.rows[len(out.rows):cap(out.rows)]
	for ki := range c.kernels {
		k := &c.kernels[ki]
		start := time.Now()
		var err error
		if rows, seqs, err = c.step(k, rows, seqs, tail, sc); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		t.sec[ki] += time.Since(start).Seconds()
		t.rows[ki] += len(rows)
	}
	for i, r := range rows {
		if c.outProj != nil {
			r = c.outProj.Cut(&sc.recs, r)
		}
		tail[i] = r
	}
	out.rows = out.rows[:len(out.rows)+len(rows)]
	out.seqs = append(out.seqs, seqs...)
	return nil
}

// step runs one kernel over the rows src (and their tags, when the chain
// tracks them) and returns the rows that remain: a filter compacts the
// survivors into the scratch, a writer writes each row's work record in
// place — the first writer fills it in the scratch first, a fused one
// writes a fresh output record into tail instead — and a projection
// returns src. Each filter kind has its own loop, so the per-row work is
// inlined, not dispatched; the writers' loop branches alike on every row.
func (c *rowChain) step(k *rowKernel, src data.Rows, seqs []int64, tail data.Rows, sc *scratch) (data.Rows, []int64, error) {
	switch k.op {
	case workflow.OpProject:
		return src, seqs, nil
	case workflow.OpFunc, workflow.OpSurrogateKey:
		dst, args := src, sc.args[:len(k.pos)]
		if k.proj != nil {
			dst = tail
		} else if k.fresh {
			dst = sc.cur
		}
		for i, r := range src {
			var v data.Value
			if k.fn != nil {
				for j, p := range k.pos {
					args[j] = r[p]
				}
				var err error
				if v, err = k.fn.Apply(args); err != nil {
					return nil, nil, err
				}
			} else if g := k.table.find(data.HashKey(r, k.pos), r, k.pos); g >= 0 {
				// A production key listed twice maps to its last surrogate.
				v = k.table.rows[k.table.groups[g].last][1]
			} else {
				return nil, nil, fmt.Errorf("surrogate key: production key %s missing from lookup", r[k.pos[0]])
			}
			rec := r
			if k.proj != nil {
				rec = k.proj.Cut(&sc.recs, r)
			} else if k.fresh {
				o := i * c.work
				rec = sc.vals[o : o+c.work : o+c.work]
				copy(rec, r)
			}
			if k.outPos >= 0 {
				rec[k.outPos] = v
			}
			dst[i] = rec
		}
		return dst[:len(src)], seqs, nil
	}
	sel := sc.sel[:0]
	switch k.op {
	case workflow.OpFilter:
		for i, r := range src {
			v, err := k.pred.Eval(k.in, r)
			if err != nil {
				return nil, nil, err
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
		if sc.cur[m] = src[i]; seqs != nil {
			sc.seq[m] = seqs[i]
		}
	}
	if seqs != nil {
		seqs = sc.seq[:len(sel)]
	}
	return sc.cur[:len(sel)], seqs, nil
}

// execChain runs chain c over in — a stage of row-local activities ending
// at node id — per partition, batch by batch.
// Filters keep survivor tags and 1:1 writers inherit them, so the tag
// invariants hold for the chain as for each member. No row changes
// partition, so the output keeps in's partitioning unless a kernel writes
// a listed attribute or the output layout drops one. It returns each
// partition's per-member tally.
func (e *Engine) execChain(ctx context.Context, id workflow.NodeID, n *workflow.Node, c *rowChain, in *pdata, p int, scr []scratch, rowsSoFar int) (*pdata, []tally, error) {
	result, tallies := newPdata(p, in.on, c.out), make([]tally, p)
	for _, attr := range in.on {
		if !c.out.Has(attr) || slices.ContainsFunc(c.kernels, func(k rowKernel) bool { return k.writes == attr }) {
			result.on = nil
		}
	}
	err := e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		ps, sc, t := in.parts[q], &scr[q], &tallies[q]
		t.rows, t.sec = make([]int, len(c.kernels)), make([]float64, len(c.kernels))
		res := pslice{rows: make(data.Rows, 0, len(ps.rows)), seqs: ps.seqs}
		if c.filters {
			res.seqs = make([]int64, 0, len(ps.rows))
		}
		b := min(batchRows, len(ps.rows))
		sc.fit(b, c)
		sc.recs.Expect(len(ps.rows)) // at most one output record a row
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
