package engine

import (
	"fmt"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// realign re-lays rows from layout src to layout dst, each cut anew from
// chunks, the names resolved once; the identity when the layouts match.
func realign(rows data.Rows, src, dst data.Schema) data.Rows {
	if src.Equal(dst) {
		return rows
	}
	proj, out, recs := data.NewProjection(src, dst), make(data.Rows, len(rows)), data.NewChunks(len(rows))
	for i, r := range rows {
		out[i] = proj.Cut(&recs, r)
	}
	return out
}

// maskGroupFirsts keeps the first row of each key group — of every group
// (DISTINCT, keyed by the whole record) or only of groups of one (the
// group-based primary-key check, which rejects every row of a repeated
// key). Like maskKeyPresence it returns a mask, not rows: keep[i] says
// *which* rows survive, and so whose tags do (applyMaskTagged).
//
// Partition contract (distinct; pkcheck, group-based): every row of a key
// group must be in one place, so the parallel engine exchanges rows by
// whole record or key tuple first; partition-local groups are then global
// groups, and a partition's first occurrence by tag the global first.
func maskGroupFirsts(in keyed, single bool) ([]bool, error) {
	t, err := newKeyTable(in)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(in.rows))
	for _, g := range t.groups {
		keep[g.first] = !single || g.first == g.last
	}
	return keep, nil
}

// aggState accumulates one group.
type aggState struct {
	sum   float64
	count int64      // rows contributing a non-NULL aggregated value
	rows  int64      // all rows in the group
	best  data.Value // the minimum or maximum so far, for min and max
	any   bool
}

// execAggregate groups rows by the grouper attributes and folds the
// aggregate. Output order is first-seen group order, which makes the
// result order-sensitive in a controlled way; first[k] is the index of the
// input row that opened output group k.
//
// Partition contract: a group's rows must be co-located, so the parallel
// engine exchanges by grouper tuple; each group's output row then carries
// the sequence tag of the group's first input row, restoring global
// first-seen order at the merge.
func (e *Engine) execAggregate(a *workflow.Activity, in, out data.Schema, input keyed) (data.Rows, []int, error) {
	rows := input.rows
	aggPos := -1
	if a.Sem.Agg != workflow.AggCount {
		aggPos = in.Index(a.Sem.AggAttr)
		if aggPos < 0 {
			return nil, nil, fmt.Errorf("aggregated attribute %q not in schema {%s}", a.Sem.AggAttr, in)
		}
	}
	outPos := out.Index(a.Sem.OutAttr)
	if outPos < 0 {
		return nil, nil, fmt.Errorf("output attribute %q not in schema {%s}", a.Sem.OutAttr, out)
	}

	t, err := newKeyTable(input)
	if err != nil {
		return nil, nil, err
	}
	proj := data.NewProjection(in, out)
	states := make([]aggState, len(t.groups))
	for i, r := range rows {
		st := &states[t.group[i]]
		st.rows++
		if aggPos >= 0 {
			st.fold(&r[aggPos], a.Sem.Agg)
		}
	}
	res, recs := make(data.Rows, len(t.groups)), data.NewChunks(len(t.groups))
	first := make([]int, len(t.groups))
	for k, g := range t.groups {
		first[k], res[k] = int(g.first), proj.Cut(&recs, rows[g.first])
		res[k][outPos] = states[k].result(a.Sem.Agg)
	}
	return res, first, nil
}

// fold accumulates one aggregated value; NULLs count only as rows.
func (st *aggState) fold(v *data.Value, fn workflow.AggKind) {
	if v.IsNull() {
		return
	}
	st.count++
	switch fn {
	case workflow.AggMin:
		if !st.any || v.Compare(st.best) < 0 {
			st.best = *v
		}
	case workflow.AggMax:
		if !st.any || v.Compare(st.best) > 0 {
			st.best = *v
		}
	default:
		st.sum += v.Float()
	}
	st.any = true
}

// result is the group's aggregate; NULL when no value contributed.
func (st *aggState) result(fn workflow.AggKind) data.Value {
	switch {
	case fn == workflow.AggCount:
		return data.NewInt(st.rows)
	case !st.any:
		return data.Null
	case fn == workflow.AggSum:
		return data.NewFloat(st.sum)
	case fn == workflow.AggAvg:
		return data.NewFloat(st.sum / float64(st.count))
	default: // AggMin, AggMax
		return st.best
	}
}

// joinLayout assembles a joined output record: each attribute by name from
// the left record, else from the right (right is -1 where the left has it),
// else NULL.
type joinLayout struct{ left, right data.Projection }

func newJoinLayout(out, left, right data.Schema) joinLayout {
	jl := joinLayout{data.NewProjection(left, out), data.NewProjection(right, out)}
	for i, p := range jl.left {
		if p >= 0 {
			jl.right[i] = -1
		}
	}
	return jl
}

// row assembles one output record, cut from c.
func (jl joinLayout) row(c *data.Chunks, l, r data.Record) data.Record {
	rec := jl.left.Cut(c, l)
	for i, p := range jl.right {
		if p >= 0 {
			rec[i] = r[p]
		}
	}
	return rec
}

// joinMatches returns the matching (left row, right row) index pairs in
// join output order.
func joinMatches(left, right keyed) (li, ri []int32, err error) {
	t, err := newKeyTable(right)
	if err != nil {
		return nil, nil, err
	}
	for i, l := range left.rows {
		g := t.find(left.hashes[i], l, left.pos)
		if g < 0 {
			continue
		}
		for m := t.groups[g].first; ; m = t.next[m] {
			li, ri = append(li, int32(i)), append(ri, m)
			if t.next[m] == 0 {
				break
			}
		}
	}
	return li, ri, nil
}

// maskKeyPresence marks the left rows whose key tuple does (keepPresent)
// or does not (!keepPresent) appear among the right rows' key tuples —
// the shared core of difference and intersection.
//
// Partition contract (diff/intersect): both inputs are exchanged by key
// tuple, so a left row and every right row that could veto or admit it
// share a partition; survivors keep their left sequence tags.
func maskKeyPresence(left, right keyed, keepPresent bool) ([]bool, error) {
	t, err := newKeyTable(right)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(left.rows))
	for i, l := range left.rows {
		keep[i] = (t.find(left.hashes[i], l, left.pos) >= 0) == keepPresent
	}
	return keep, nil
}

// keyPositions resolves key attributes to positions in schema. The result
// is never nil, even for no attributes: to data.HashKey a nil position
// list means the whole record, an empty one the empty tuple.
func keyPositions(schema data.Schema, attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p := schema.Index(a)
		if p < 0 {
			return nil, fmt.Errorf("key attribute %q not in schema {%s}", a, schema)
		}
		out[i] = p
	}
	return out, nil
}
