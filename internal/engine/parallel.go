package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
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
// partition. Materialized mode is P=1, where every exchange is the
// identity and every merge returns its only input.
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

// pslice is one partition of a node's output: rows plus their sequence
// tags, index-aligned. A partition fresh from exchangeByKey also carries
// each row's hash under the exchange key. A pslice is immutable once built.
type pslice struct {
	rows   data.Rows
	seqs   []int64
	hashes []uint64
}

// keyed presents an exchanged partition to a kernel as an input keyed by
// pos, the positions it was exchanged on.
func (ps pslice) keyed(pos []int) keyed { return keyed{rows: ps.rows, pos: pos, hashes: ps.hashes} }

// pdata is a node's full partitioned output.
type pdata struct {
	parts []pslice
}

func newPdata(p int) *pdata { return &pdata{parts: make([]pslice, p)} }

// total counts the rows across all partitions.
func (pd *pdata) total() int {
	n := 0
	for _, ps := range pd.parts {
		n += len(ps.rows)
	}
	return n
}

// scatterRows deals rows round-robin into P partitions, tagging row i
// with sequence i. This is the canonical way fresh (merged-order) rows
// enter the partitioned world.
func scatterRows(rows data.Rows, p int) *pdata {
	parts := []data.Rows{rows} // one partition shares the slice: pslices are immutable
	if p > 1 {
		parts = rows.SplitRoundRobin(p)
	}
	pd := &pdata{parts: make([]pslice, len(parts))}
	for i := range parts {
		seqs := make([]int64, len(parts[i]))
		for j := range seqs {
			seqs[j] = int64(i + j*len(parts))
		}
		pd.parts[i] = pslice{rows: parts[i], seqs: seqs}
	}
	return pd
}

// mergeBySeq k-way-merges tagged slices into one slice ordered by
// ascending tag, carrying the rows' hashes along when the inputs have
// them. Tags ascend within an input and no tag occurs in two inputs, so
// the merge is total; a tag repeated within one input (parJoin) keeps its
// rows together and in order.
func mergeBySeq(parts []pslice) pslice {
	if len(parts) == 1 {
		return parts[0]
	}
	total, hashed := 0, 0
	for _, ps := range parts {
		total += len(ps.rows)
		hashed += len(ps.hashes)
	}
	out := pslice{rows: make(data.Rows, 0, total), seqs: make([]int64, 0, total)}
	if hashed > 0 {
		out.hashes = make([]uint64, 0, total)
	}
	heads := make([]int, len(parts))
	for len(out.rows) < total {
		best := -1
		for p, ps := range parts {
			if heads[p] >= len(ps.rows) {
				continue
			}
			if best < 0 || ps.seqs[heads[p]] < parts[best].seqs[heads[best]] {
				best = p
			}
		}
		out.rows = append(out.rows, parts[best].rows[heads[best]])
		out.seqs = append(out.seqs, parts[best].seqs[heads[best]])
		if hashed > 0 {
			out.hashes = append(out.hashes, parts[best].hashes[heads[best]])
		}
		heads[best]++
	}
	return out
}

// gather restores a node's materialized row order (invariant 2).
func gather(pd *pdata) data.Rows { return mergeBySeq(pd.parts).rows }

// realignPdata re-lays each partition's rows out from schema src to dst,
// keeping tags; identity when the layouts match. Partitions are realigned
// concurrently — the projection is pure per-row work.
func realignPdata(pd *pdata, src, dst data.Schema) *pdata {
	if src.Equal(dst) {
		return pd
	}
	out := newPdata(len(pd.parts))
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

// partitionCount resolves Parallel mode's partition count; default is the
// number of CPUs.
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

// exchangeByKey repartitions pd so that all rows with the same key tuple
// under pos land in one partition, preserving tag order within each
// destination. A row is hashed once: the hash's high bits pick the
// destination (seedless, so partition layouts repeat across runs and
// builds) and the hash travels with the row for the kernel's key table.
// The rows routed are one exchange event.
func (e *Engine) exchangeByKey(ctx context.Context, id workflow.NodeID, n *workflow.Node, pd *pdata, p int, rowsSoFar int, pos []int) (*pdata, error) {
	if p == 1 {
		// A single partition already co-locates every key; nothing routes.
		ps := pd.parts[0]
		ps.hashes = hashKeys(ps.rows, pos).hashes
		return &pdata{parts: []pslice{ps}}, nil
	}
	// Phase 1, partition-parallel: each source partition hashes its rows,
	// counts them per destination and deals them into exact-size buckets;
	// buckets inherit ascending tags.
	buckets := make([][]pslice, p) // [src][dst]
	err := e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		if err := e.checkFault(ctx, fault.SiteExchange, id, n, q); err != nil {
			return err
		}
		ps := pd.parts[q]
		hashes := hashKeys(ps.rows, pos).hashes
		route := func(h uint64) int { return int((h >> 32) * uint64(p) >> 32) }
		counts := make([]int, p)
		for _, h := range hashes {
			counts[route(h)]++
		}
		dst := make([]pslice, p)
		for d, c := range counts {
			dst[d] = pslice{rows: make(data.Rows, 0, c), seqs: make([]int64, 0, c), hashes: make([]uint64, 0, c)}
		}
		for i, h := range hashes {
			b := &dst[route(h)]
			b.rows = append(b.rows, ps.rows[i])
			b.seqs = append(b.seqs, ps.seqs[i])
			b.hashes = append(b.hashes, h)
		}
		buckets[q] = dst
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2, partition-parallel: each destination merges its p source
	// buckets by tag, restoring invariant 1.
	result := newPdata(p)
	err = e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		mine := make([]pslice, p)
		for src := 0; src < p; src++ {
			mine[src] = buckets[src][q]
		}
		result.parts[q] = mergeBySeq(mine)
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
	// key resolution and per-partition execution see n.In[i] layouts.
	inputs := make([]*pdata, len(preds))
	for i, pr := range preds {
		inputs[i] = realignPdata(out[pr], g.Node(pr).Out, n.In[i])
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
		// lookup-based one is streamable) or the groupers.
		var pos []int
		if a.Sem.Op != workflow.OpDistinct {
			var err error
			if pos, err = keyPositions(n.In[0], a.Sem.Attrs); err != nil {
				return nil, err
			}
		}
		ex, err := e.exchangeByKey(ctx, id, n, inputs[0], p, rowsSoFar, pos)
		if err != nil {
			return nil, err
		}
		result := newPdata(p)
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
	case workflow.OpMerged:
		// A package with a blocking component runs over the partitions one
		// component at a time: a row-local one as a chain, any other by contract.
		pd, in := inputs[0], n.In
		for _, comp := range a.Sem.Components {
			out, err := workflow.DeriveOutput(comp, in)
			var ks []rowKernel
			switch {
			case err != nil:
			case !streamable(comp):
				step := &workflow.Node{Kind: workflow.KindActivity, Act: comp, In: in, Out: out}
				pd, err = e.execParallelOp(ctx, id, step, []*pdata{pd}, p, rowsSoFar)
			default:
				if ks, err = e.appendKernels(nil, rowKernel{}, comp, in[0], out); err == nil {
					pd, _, err = e.execChain(ctx, id, n, newRowChain(ks), pd, p, make([]scratch, p), rowsSoFar)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("merged component %s: %w", comp.Sem, err)
			}
			in = []data.Schema{out}
		}
		return pd, nil
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

// parUnion concatenates the inputs partition-wise: left rows keep their
// tags, right tags are shifted past the left input's global maximum, so
// the merged order is all left rows then all right rows — the
// materialized union order.
func (e *Engine) parUnion(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int) (*pdata, error) {
	l, r := inputs[0], inputs[1]
	var offset int64 // tags ascend within a partition: its last is its largest
	for _, ps := range l.parts {
		if n := len(ps.seqs); n > 0 {
			offset = max(offset, ps.seqs[n-1]+1)
		}
	}
	result := newPdata(p)
	err := e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		lp, rp := l.parts[q], r.parts[q]
		rows := make(data.Rows, 0, len(lp.rows)+len(rp.rows))
		rows = append(rows, realign(lp.rows, n.In[0], n.Out)...)
		rows = append(rows, realign(rp.rows, n.In[1], n.Out)...)
		seqs := make([]int64, 0, len(rows))
		seqs = append(seqs, lp.seqs...)
		for _, s := range rp.seqs {
			seqs = append(seqs, s+offset)
		}
		result.parts[q] = pslice{rows: rows, seqs: seqs}
		return nil
	})
	return result, err
}

// parJoin exchanges both inputs by the join key so matching pairs are
// co-located and joins each partition in nested-loop order. Every output
// row takes its left row's tag: a left row lives in one partition, so
// equal tags sit side by side there, already in right-input order, and
// the tag merge reproduces the materialized join order; the merged rows
// are re-scattered with fresh tags.
func (e *Engine) parJoin(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int) (*pdata, error) {
	lex, rex, leftKey, rightKey, err := e.exchangeBoth(ctx, id, n, inputs, p, rowsSoFar)
	if err != nil {
		return nil, err
	}
	jl := newJoinLayout(n.Out, n.In[0], n.In[1])
	per := make([]pslice, p)
	err = e.forEachPartition(ctx, id, n, p, rowsSoFar, func(q int) error {
		lp, rp := lex.parts[q], rex.parts[q]
		li, ri, err := joinMatches(lp.keyed(leftKey), rp.keyed(rightKey))
		if err != nil {
			return err
		}
		out := pslice{rows: make(data.Rows, len(li)), seqs: make([]int64, len(li))}
		for k := range li {
			out.rows[k] = jl.row(lp.rows[li[k]], rp.rows[ri[k]])
			out.seqs[k] = lp.seqs[li[k]]
		}
		per[q] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scatterRows(mergeBySeq(per).rows, p), nil
}

// parKeyPresence is the shared parallel body of difference (keepPresent
// false) and intersection (true): exchange both sides by key tuple, mask
// each left partition against its co-located right rows, keep left tags.
func (e *Engine) parKeyPresence(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int, keepPresent bool) (*pdata, error) {
	lex, rex, leftKey, rightKey, err := e.exchangeBoth(ctx, id, n, inputs, p, rowsSoFar)
	if err != nil {
		return nil, err
	}
	result := newPdata(p)
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

// exchangeBoth exchanges a binary operator's two inputs by its key
// attributes, resolved on each side's layout.
func (e *Engine) exchangeBoth(ctx context.Context, id workflow.NodeID, n *workflow.Node, inputs []*pdata, p int, rowsSoFar int) (lex, rex *pdata, leftKey, rightKey []int, err error) {
	if leftKey, err = keyPositions(n.In[0], n.Act.Sem.Attrs); err == nil {
		rightKey, err = keyPositions(n.In[1], n.Act.Sem.Attrs)
	}
	if err != nil {
		return
	}
	if lex, err = e.exchangeByKey(ctx, id, n, inputs[0], p, rowsSoFar, leftKey); err != nil {
		return
	}
	rex, err = e.exchangeByKey(ctx, id, n, inputs[1], p, rowsSoFar, rightKey)
	return
}
