package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// This file implements partitioned node execution, the representation the
// node driver (runNodes) holds every intermediate in: each recordset is
// split across P partitions, order-preserving operators run partition by
// partition with no coordination, and key-sensitive operators repartition
// their input by key tuple first so that all rows that must meet share a
// partition — unless the input already lies that way. At P=1 every
// exchange is the identity and every merge returns its only input.
//
// Determinism is carried by sequence tags. Each partitioned row owns an
// int64 tag with two invariants:
//
//  1. tags are strictly increasing within a partition, and
//  2. sorting all of a node's rows by tag reproduces exactly the row
//     order a single partition produces for that node.
//
// Source scatter establishes the invariants (row i of a scan gets tag i),
// every operator preserves them (see the "Partition contract" comments in
// exec.go), and the final gather is a k-way merge by tag — so the target
// rows are bit-identical at any partition count.
//
// Partitioning is carried along the dataflow (Liu, PAPERS.md: partition
// once, then keep it). An exchange records the attribute list it routed
// on; an operator that moves no row between partitions and rewrites no
// listed value passes the list on; and a key operator whose input already
// co-locates its keys runs where the rows are. An exchanged row is copied
// once, from its source partition straight into its destination's merge.

// pslice is one partition of a node's output: rows plus their sequence
// tags, index-aligned. A partition fresh from exchangeByKey also carries
// each row's hash under the exchange key. A pslice is immutable once built.
type pslice struct {
	rows   data.Rows
	seqs   []int64
	hashes []uint64
}

// keyed presents a partition to a kernel as an input keyed by pos: with
// the hashes an exchange on pos carried, or hashed here when the partition
// was not exchanged.
func (ps pslice) keyed(pos []int) keyed {
	if ps.hashes == nil {
		return hashKeys(ps.rows, pos)
	}
	return keyed{rows: ps.rows, pos: pos, hashes: ps.hashes}
}

// pdata is a node's full partitioned output. on is the attribute list its
// rows are hash-partitioned on at the run's P — each row sits in the
// partition its values on those attributes route to (exchangeByKey) — or
// nil when a row may sit in any partition. Only an exchange sets it;
// operators that move no row between partitions and write no listed
// attribute carry it. layout is its rows' attribute order: the node's
// output layout, or its reader's where a chain writes that (resolveChain).
type pdata struct {
	parts  []pslice
	on     []string
	layout data.Schema
}

// colocated reports whether pd's rows with equal key tuples under key
// share a partition: pd is partitioned on attributes all in the key, so
// equal keys (data.KeyEqual) agree on them and route alike.
func (pd *pdata) colocated(key []string) bool {
	return pd.on != nil && !slices.ContainsFunc(pd.on, func(a string) bool { return !slices.Contains(key, a) })
}

// newPdata is the output of p partitions, partitioned on on and laid out as layout.
func newPdata(p int, on []string, layout data.Schema) *pdata {
	return &pdata{parts: make([]pslice, p), on: on, layout: layout}
}

// total counts the rows across all partitions.
func (pd *pdata) total() int {
	n := 0
	for _, ps := range pd.parts {
		n += len(ps.rows)
	}
	return n
}

// scatterRows deals rows laid out as layout round-robin into P partitions,
// tagging row i with sequence i. This is the canonical way fresh
// (merged-order) rows enter the partitioned world.
func scatterRows(rows data.Rows, p int, layout data.Schema) *pdata {
	parts := []data.Rows{rows} // one partition shares the slice: pslices are immutable
	if p > 1 {
		parts = rows.SplitRoundRobin(p)
	}
	pd := newPdata(len(parts), nil, layout)
	for i := range parts {
		seqs := make([]int64, len(parts[i]))
		for j := range seqs {
			seqs[j] = int64(i + j*len(parts))
		}
		pd.parts[i] = pslice{rows: parts[i], seqs: seqs}
	}
	return pd
}

// smallest returns the slice whose next row (at heads) has the smallest
// tag, or -1 when every slice is exhausted.
func smallest(parts []pslice, heads []int) int {
	best := -1
	for q, i := range heads {
		if i < len(parts[q].seqs) && (best < 0 || parts[q].seqs[i] < parts[best].seqs[heads[best]]) {
			best = q
		}
	}
	return best
}

// gather restores a node's materialized row order (invariant 2): a k-way
// merge of its partitions by tag.
func gather(pd *pdata) data.Rows {
	if len(pd.parts) == 1 {
		return pd.parts[0].rows
	}
	out := make(data.Rows, 0, pd.total())
	heads := make([]int, len(pd.parts))
	for q := smallest(pd.parts, heads); q >= 0; q = smallest(pd.parts, heads) {
		out = append(out, pd.parts[q].rows[heads[q]])
		heads[q]++
	}
	return out
}

// realignPdata re-lays each partition's rows out to layout dst, keeping
// tags and partitioning; identity when the layouts match. Partitions are
// realigned concurrently — the projection is pure per-row work.
func realignPdata(pd *pdata, dst data.Schema) *pdata {
	src := pd.layout
	if src.Equal(dst) {
		return pd
	}
	out := newPdata(len(pd.parts), pd.on, dst)
	var wg sync.WaitGroup
	wg.Add(len(pd.parts))
	for p := range pd.parts {
		go func(p int) {
			defer wg.Done()
			out.parts[p] = pslice{rows: realign(pd.parts[p].rows, src, dst), seqs: pd.parts[p].seqs}
		}(p)
	}
	wg.Wait()
	return out
}

// applyMaskTagged keeps the rows (and tags) selected by an exec.go mask.
// The result is an operator's output, so it sheds the input's key hashes.
func applyMaskTagged(ps pslice, keep []bool) pslice {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == len(ps.rows) {
		return pslice{rows: ps.rows, seqs: ps.seqs}
	}
	out := pslice{rows: make(data.Rows, 0, n), seqs: make([]int64, 0, n)}
	for i, k := range keep {
		if k {
			out.rows = append(out.rows, ps.rows[i])
			out.seqs = append(out.seqs, ps.seqs[i])
		}
	}
	return out
}

// partitionCount resolves the partition count; 0 is runtime.GOMAXPROCS(0).
func (e *Engine) partitionCount() int {
	if e.partitions > 0 {
		return e.partitions
	}
	return runtime.GOMAXPROCS(0)
}

// forEachPartition runs fn(p) for every partition on its own goroutine,
// observing per-partition busy time. A context already cancelled when a
// partition starts yields a cancellation error naming node, partition and
// progress; otherwise the lowest-indexed partition error wins,
// deterministically.
func (e *Engine) forEachPartition(ctx context.Context, id workflow.NodeID, n *workflow.Node, p int, rowsSoFar int, fn func(q int) error) error {
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for q := 0; q < p; q++ {
		go func(q int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[q] = fmt.Errorf("engine: run cancelled at node %d (%s) partition %d after %d rows: %w",
					id, n.Label(), q, rowsSoFar, err)
				return
			}
			start := time.Now()
			if e.pprofLabels {
				// Tag the partition worker so CPU profiles attribute samples
				// to the node and partition that burned them.
				pprof.Do(ctx, pprof.Labels(
					"etl", "engine",
					"etl_node", n.Label(),
					"etl_partition", strconv.Itoa(q),
				), func(context.Context) {
					errs[q] = fn(q)
				})
			} else {
				errs[q] = fn(q)
			}
			e.metrics.Gauge("engine_partition_busy_seconds", "partition", strconv.Itoa(q)).Add(time.Since(start).Seconds())
		}(q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// route is the destination of a row whose key hashes to h among p
// partitions: the hash's high bits, so the routing is independent of
// whatever bits a key table indexes by.
func route(h uint64, p int) int { return int((h >> 32) * uint64(p) >> 32) }

// exchangeByKey repartitions pd so that all rows with the same key tuple
// under pos land in one partition, preserving tag order within each
// destination; the result is partitioned on on, the attributes at pos. A
// row is hashed once (seedless, so partition layouts repeat across runs
// and builds), copied once, and its hash travels with it for the kernel's
// key table. The rows routed are one exchange event.
func (e *Engine) exchangeByKey(ctx context.Context, id workflow.NodeID, n *workflow.Node, pd *pdata, p int, rowsSoFar int, on []string, pos []int) (*pdata, error) {
	if p == 1 {
		// A single partition already co-locates every key; nothing routes.
		ps := pd.parts[0]
		ps.hashes = hashKeys(ps.rows, pos).hashes
		return &pdata{parts: []pslice{ps}, on: on, layout: pd.layout}, nil
	}
	// Phase 1, partition-parallel: each source partition hashes its rows
	// and counts them per destination. Nothing is copied.
	hashes, counts := make([][]uint64, p), make([][]int, p) // [src][row], [src][dst]
	err := e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		if err := e.checkFault(fault.SiteExchange, id, n, q); err != nil {
			return err
		}
		hashes[q], counts[q] = hashKeys(pd.parts[q].rows, pos).hashes, make([]int, p)
		for _, h := range hashes[q] {
			counts[q][route(h, p)]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2, partition-parallel: each destination sizes its rows exactly
	// and merges them by tag straight out of the source partitions, taking
	// only the rows routed to it — restoring invariant 1.
	result := newPdata(p, on, pd.layout)
	err = e.forEachPartition(ctx, id, n, p, rowsSoFar, func(d int) error {
		total := 0
		for _, c := range counts {
			total += c[d]
		}
		out := pslice{rows: make(data.Rows, total), seqs: make([]int64, total), hashes: make([]uint64, total)}
		heads := make([]int, p)
		skip := func(q int) { // to the source's next row routed here
			for hs := hashes[q]; heads[q] < len(hs) && route(hs[heads[q]], p) != d; heads[q]++ {
			}
		}
		for q := range heads {
			skip(q)
		}
		for k := range total {
			q := smallest(pd.parts, heads)
			i := heads[q]
			out.rows[k], out.seqs[k], out.hashes[k] = pd.parts[q].rows[i], pd.parts[q].seqs[i], hashes[q][i]
			heads[q]++
			skip(q)
		}
		result.parts[d] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.rec.Emit(obs.ExchangeEvent(e.keys[id], pd.total()))
	return result, nil
}

// execParallel runs one activity that is not row-local (those run as
// stages, stage.go) over partitioned inputs. Cancellation errors pass
// through already annotated; any other failure names the activity.
func (e *Engine) execParallel(ctx context.Context, g *workflow.Graph, id workflow.NodeID, n *workflow.Node, out map[workflow.NodeID]*pdata, p int, rowsSoFar int) (*pdata, error) {
	preds := g.Providers(id)
	// Align every input to the node's derived input layout up front, so
	// key resolution and per-partition execution see n.In[i] layouts — a
	// union's straight to its output layout.
	inputs := make([]*pdata, len(preds))
	for i, pr := range preds {
		dst := n.In[i]
		if n.Act.Sem.Op == workflow.OpUnion {
			dst = n.Out
		}
		inputs[i] = realignPdata(out[pr], dst)
	}
	pd, err := e.execParallelOp(ctx, id, n, inputs, p, rowsSoFar)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("engine: activity %d (%s): %w", id, n.Label(), err)
	}
	return pd, nil
}

func (e *Engine) execParallelOp(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int) (*pdata, error) {
	a := n.Act
	switch a.Sem.Op {
	case workflow.OpDistinct, workflow.OpPKCheck, workflow.OpAggregate:
		// All rows of a key must meet: exchange by the whole record
		// (distinct), the key attributes (group-based pkcheck; the
		// lookup-based one is row-local) or the groupers — unless the
		// input already co-locates them.
		key, pos, ex := []string(n.In[0]), []int(nil), inputs[0]
		var err error
		if a.Sem.Op != workflow.OpDistinct {
			key = a.Sem.Attrs
			if pos, err = keyPositions(n.In[0], key); err != nil {
				return nil, err
			}
		}
		if !ex.colocated(key) {
			if ex, err = e.exchangeByKey(ctx, id, n, ex, p, rowsSoFar, key, pos); err != nil {
				return nil, err
			}
		}
		result := newPdata(p, ex.on, n.Out)
		if slices.Contains(ex.on, a.Sem.OutAttr) { // an aggregate overwriting a grouper
			result.on = nil
		}
		err = e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
			ps := ex.parts[q]
			if a.Sem.Op == workflow.OpAggregate {
				rows, first, err := e.execAggregate(a, n.In[0], n.Out, ps.keyed(pos))
				if err != nil {
					return err
				}
				// Each group's output row adopts the tag of the group's first
				// input row; with a group's rows co-located that is its global
				// first occurrence, so the merge restores first-seen order.
				seqs := make([]int64, len(first))
				for k, i := range first {
					seqs[k] = ps.seqs[i]
				}
				result.parts[q] = pslice{rows: rows, seqs: seqs}
				return nil
			}
			keep, err := maskGroupFirsts(ps.keyed(pos), a.Sem.Op == workflow.OpPKCheck)
			if err != nil {
				return err
			}
			result.parts[q] = applyMaskTagged(ps, keep)
			return nil
		})
		return result, err
	case workflow.OpUnion:
		return e.parUnion(ctx, id, n, inputs, p, rowsSoFar)
	case workflow.OpJoin:
		return e.parJoin(ctx, id, n, inputs, p, rowsSoFar)
	case workflow.OpDiff:
		return e.parKeyPresence(ctx, id, n, inputs, p, rowsSoFar, false)
	case workflow.OpIntersect:
		return e.parKeyPresence(ctx, id, n, inputs, p, rowsSoFar, true)
	default:
		return nil, fmt.Errorf("unsupported operation %s", a.Sem.Op)
	}
}

// parUnion concatenates the inputs, laid out as its output, partition-wise:
// left rows keep their tags, right tags are shifted past the left input's
// global maximum, so the merged order is all left rows then all right rows
// — the materialized union order. Inputs partitioned on the same list stay
// so.
func (e *Engine) parUnion(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int) (*pdata, error) {
	l, r := inputs[0], inputs[1]
	var offset int64 // tags ascend within a partition: its last is its largest
	for _, ps := range l.parts {
		if n := len(ps.seqs); n > 0 {
			offset = max(offset, ps.seqs[n-1]+1)
		}
	}
	result := newPdata(p, nil, n.Out)
	if slices.Equal(l.on, r.on) {
		result.on = l.on
	}
	err := e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		lp, rp := l.parts[q], r.parts[q]
		rows := append(append(make(data.Rows, 0, len(lp.rows)+len(rp.rows)), lp.rows...), rp.rows...)
		seqs := append(make([]int64, 0, len(rows)), lp.seqs...)
		for _, s := range rp.seqs {
			seqs = append(seqs, s+offset)
		}
		result.parts[q] = pslice{rows: rows, seqs: seqs}
		return nil
	})
	return result, err
}

// parJoin co-locates both inputs by the join key and joins each
// partition in nested-loop order, so a left row's matches sit side by
// side in its partition, in right-input order. Each output row is then
// tagged with its rank in (left tag, right order) — a merge over the
// partitions' tags alone, which is the materialized join order — and
// stays where it was made, partitioned like the left side.
func (e *Engine) parJoin(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int) (*pdata, error) {
	lex, rex, leftKey, rightKey, err := e.exchangeBoth(ctx, id, n, inputs, p, rowsSoFar)
	if err != nil {
		return nil, err
	}
	jl := newJoinLayout(n.Out, n.In[0], n.In[1])
	result := newPdata(p, lex.on, n.Out)
	err = e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		lp, rp := lex.parts[q], rex.parts[q]
		li, ri, err := joinMatches(lp.keyed(leftKey), rp.keyed(rightKey))
		if err != nil {
			return err
		}
		out, recs := pslice{rows: make(data.Rows, len(li)), seqs: make([]int64, len(li))}, data.NewChunks(len(li))
		for k := range li {
			out.rows[k] = jl.row(&recs, lp.rows[li[k]], rp.rows[ri[k]])
			out.seqs[k] = lp.seqs[li[k]]
		}
		result.parts[q] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	heads := make([]int, p)
	for k, q := int64(0), smallest(result.parts, heads); q >= 0; k, q = k+1, smallest(result.parts, heads) {
		result.parts[q].seqs[heads[q]] = k
		heads[q]++
	}
	return result, nil
}

// parKeyPresence is the shared parallel body of difference (keepPresent
// false) and intersection (true): co-locate both sides by key tuple, mask
// each left partition against its co-located right rows, keep left tags
// and the left side's partitioning.
func (e *Engine) parKeyPresence(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int, keepPresent bool) (*pdata, error) {
	lex, rex, leftKey, rightKey, err := e.exchangeBoth(ctx, id, n, inputs, p, rowsSoFar)
	if err != nil {
		return nil, err
	}
	result := newPdata(p, lex.on, n.Out)
	err = e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		keep, err := maskKeyPresence(lex.parts[q].keyed(leftKey), rex.parts[q].keyed(rightKey), keepPresent)
		if err != nil {
			return err
		}
		result.parts[q] = applyMaskTagged(lex.parts[q], keep)
		return nil
	})
	return result, err
}

// exchangeBoth co-locates a binary operator's two inputs by its key
// attributes, resolved on each side's layout. A side already partitioned
// on exactly the key list, in order, stays put; every other side is
// exchanged on that list, so both route a key alike.
func (e *Engine) exchangeBoth(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int) (lex, rex *pdata, leftKey, rightKey []int, err error) {
	keys := n.Act.Sem.Attrs
	if leftKey, err = keyPositions(n.In[0], keys); err == nil {
		rightKey, err = keyPositions(n.In[1], keys)
	}
	lex, rex = inputs[0], inputs[1]
	if err == nil && (lex.on == nil || !slices.Equal(lex.on, keys)) {
		lex, err = e.exchangeByKey(ctx, id, n, lex, p, rowsSoFar, keys, leftKey)
	}
	if err == nil && (rex.on == nil || !slices.Equal(rex.on, keys)) {
		rex, err = e.exchangeByKey(ctx, id, n, rex, p, rowsSoFar, keys, rightKey)
	}
	return
}
